// Package flips is the public API of the FLIPS reproduction: Federated
// Learning using Intelligent Participant Selection (Bhope et al.,
// MIDDLEWARE 2023).
//
// It is what the binaries call. RunSimulation and RunSimulationStream run
// one job — a SimulationConfig, the same JSON object DecodeSimulationConfig
// reads from a POST /jobs body or a `flipsd -selftest` job file — over the
// full evaluation stack: synthetic workloads, Dirichlet non-IID
// partitioning, the registered selection strategies, seven FL algorithms,
// straggler and device emulation. DistRunner runs the same job with local
// training on shard-worker processes, and DistWorkerBuilder builds a worker's
// shard of it.
//
// FLIPS selection itself is the "flips" row of the selector registry, and
// the private-clustering enclave of paper §3.3 is `flipsd -mode tee`; the
// paper tables and figures are `flipsbench -exp`. See DESIGN.md for the
// system inventory.
package flips
