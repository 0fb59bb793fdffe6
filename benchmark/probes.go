package main

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"flips"
	"flips/internal/dataset"
	"flips/internal/experiment"
	"flips/internal/fl"
	"flips/internal/metrics"
	"flips/internal/model"
	"flips/internal/parallel"
	"flips/internal/partition"
	"flips/internal/rng"
	"flips/internal/secagg"
	"flips/internal/tensor"
	"flips/internal/wire"
)

// timeCalls calls fn until the budget is spent and returns the mean seconds
// per call. The first call is a warm-up (lazy set-up and cold caches are not
// charged) unless it alone spends the budget, in which case it is the answer.
func timeCalls(budget time.Duration, fn func()) float64 {
	start := time.Now()
	fn()
	if first := time.Since(start); first >= budget {
		return first.Seconds()
	}
	calls := 0
	start = time.Now()
	for {
		fn()
		calls++
		if el := time.Since(start); el >= budget {
			return el.Seconds() / float64(calls)
		}
	}
}

// probeLayers times each layer's exported entry points at the shapes of one
// built job — its parameter dimension, cohort size, party data and test set —
// and returns metric name -> value. It reports time per call; the caller
// multiplies by the call counts the traced run observed. probeBudget bounds
// each probe: calls repeat until it is spent.
func probeLayers(probeBudget time.Duration, cfg flips.SimulationConfig, res resolved, built *experiment.BuildResult, distributed bool) (map[string]float64, error) {
	out := make(map[string]float64)
	fc := built.Config
	root := rng.New(cfg.Seed)

	// experiment: the build's own stages.
	spec := res.setting.Spec
	if res.scale.TrainSize > 0 {
		spec = spec.WithSizes(res.scale.TrainSize, max(res.scale.TestSize, 1))
	}
	var train *dataset.Dataset
	var err error
	out["dataset.generate_ms"] = 1e3 * timeCalls(probeBudget, func() {
		train, _, err = dataset.Generate(spec, root.Split(1))
	})
	if err != nil {
		return nil, err
	}
	out["partition.dirichlet_ms"] = 1e3 * timeCalls(probeBudget, func() {
		_, err = partition.Dirichlet(train, res.scale.Parties, res.setting.Alpha, root.Split(2))
	})
	if err != nil {
		return nil, err
	}
	var clusters [][]int
	out["core.label_clustering_ms"] = 1e3 * timeCalls(probeBudget, func() {
		clusters, err = labelClusters(built.Parties, root.Split(4).Split(1))
	})
	if err != nil {
		return nil, err
	}
	out["core.clusters"] = float64(len(clusters))

	// model / tensor: local training over a fixed stride sample of the fleet,
	// so per-party data sizes vary the way the job's do.
	global := fc.Factory(root.Split(0xF0))
	params := global.Params()
	dim := len(params)
	sample := make([]*fl.Party, 0, 64)
	for i := 0; i < len(built.Parties); i += max(len(built.Parties)/64, 1) {
		sample = append(sample, built.Parties[i])
	}
	replica := global.Clone()
	var scratch model.TrainScratch
	trainOnce := func() {
		for i, p := range sample {
			replica.SetParams(params)
			model.TrainLocalScratch(replica, p.Data, fc.SGD, params, root.Split(uint64(i)+100), &scratch)
		}
	}
	out["model.train_local_us"] = 1e6 * timeCalls(probeBudget, trainOnce) / float64(len(sample))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	trainOnce()
	runtime.ReadMemStats(&after)
	out["model.train_local_allocs"] = float64(after.Mallocs-before.Mallocs) / float64(len(sample))
	batch := sample[0].Data
	if bs := fc.SGD.WithDefaults().BatchSize; len(batch) > bs {
		batch = batch[:bs]
	}
	grad := tensor.NewVec(dim)
	out["model.loss_gradient_us"] = 1e6 * timeCalls(probeBudget/2, func() { replica.LossGradient(batch, grad) })

	// metrics: one evaluation of the job's test set at the job's width.
	pool := parallel.New(parallel.New(fc.Parallelism).Width())
	out["metrics.eval_ms"] = 1e3 * timeCalls(probeBudget, func() {
		metrics.ShardedClassCounts(global, fc.Test, fc.NumClasses, pool)
	})

	// fl folds at the job's cohort × parameter shape.
	cohort := fc.PartiesPerRound
	if b, ok := fc.Aggregation.(fl.Buffered); ok {
		cohort = b.K
		if cohort == 0 {
			cohort = max(fc.PartiesPerRound/2, 1)
		}
	}
	updates := make([]tensor.Vec, cohort)
	weights := make([]float64, cohort)
	fill := root.Split(0xFD)
	for i := range updates {
		updates[i] = tensor.NewVec(dim)
		for j := range updates[i] {
			updates[i][j] = params[j] + 0.01*fill.NormFloat64()
		}
		weights[i] = float64(sample[i%len(sample)].NumSamples())
	}
	dst := tensor.NewVec(dim)
	shards := max(fc.Shards, 1)
	out["fl.fold_mean_us"] = 1e6 * timeCalls(probeBudget/2, func() {
		fl.WeightedAverageDeltaShardedInto(dst, params, updates, weights, pool, shards)
	})
	for name, kind := range map[string]fl.FoldKind{
		"fl.fold_median_us": fl.FoldMedian, "fl.fold_trimmed_us": fl.FoldTrimmedMean, "fl.fold_krum_us": fl.FoldKrum,
	} {
		fold := fl.FoldConfig{Kind: kind}
		out[name] = 1e6 * timeCalls(probeBudget/2, func() {
			fl.RobustDeltaShardedInto(fold, dst, params, updates, pool, shards)
		})
	}

	if cfg.Mask {
		if err := probeSecagg(out, probeBudget, cfg.Seed, fc.PartiesPerRound, dim); err != nil {
			return nil, err
		}
	}
	if distributed {
		if err := probeWire(out, probeBudget, dim); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// probeSecagg times the secure-aggregation primitives a k-member wave uses:
// one X25519 pair-seed agreement, one pair-mask expansion over the masked
// vector (dim coordinates plus the weight), one Shamir split among k-1
// holders at the default majority threshold, and one reconstruction.
func probeSecagg(out map[string]float64, probeBudget time.Duration, seed uint64, k, dim int) error {
	secretA, secretB := secagg.DeriveSecret(seed, 0), secagg.DeriveSecret(seed, 1)
	privA, err := secagg.PrivateKeyFromSecret(&secretA)
	if err != nil {
		return err
	}
	privB, err := secagg.PrivateKeyFromSecret(&secretB)
	if err != nil {
		return err
	}
	var pair [32]byte
	out["secagg.pair_seed_us"] = 1e6 * timeCalls(probeBudget, func() {
		pair, err = secagg.PairSeed(privA, privB.PublicKey())
	})
	if err != nil {
		return err
	}
	acc := make([]uint64, dim+1)
	out["secagg.add_pair_mask_us"] = 1e6 * timeCalls(probeBudget, func() {
		secagg.AddPairMask(acc, &pair, 1, 0, len(acc), false)
	})
	if k < 2 {
		return fmt.Errorf("masked cohort of %d cannot share secrets", k)
	}
	threshold := min(k/2+1, k-1)
	xs := make([]uint64, k-1)
	for i := range xs {
		xs[i] = uint64(i) + 2
	}
	var shares []secagg.Share
	out["secagg.split_secret_us"] = 1e6 * timeCalls(probeBudget/2, func() {
		shares, err = secagg.SplitSecret(&secretA, xs, threshold, 1)
	})
	if err != nil {
		return err
	}
	out["secagg.combine_shares_us"] = 1e6 * timeCalls(probeBudget/2, func() {
		_, err = secagg.CombineShares(shares, threshold)
	})
	if err != nil {
		return err
	}
	// A wave enrolls every unordered pair of its cohort; the engine caches
	// seeds across waves, so this is the per-wave ceiling of fresh agreements.
	out["secagg.est_pair_seeds_per_wave"] = float64(k * (k - 1) / 2)
	return nil
}

// probeWire times the frame codec over loopback TCP: a small-frame
// round-trip against an echoing peer, and one parameter-vector-sized
// checkpoint streamed in the coordinator's 64Ki-float chunks and acked once.
func probeWire(out map[string]float64, probeBudget time.Duration, dim int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	const version, typEcho, typChunk, typLast = 1, 1, 2, 3
	peerDone := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			peerDone <- err
			return
		}
		defer conn.Close()
		codec := wire.NewCodec(conn, version)
		for {
			typ, payload, err := codec.Recv()
			if err != nil {
				peerDone <- nil // the client closing ends the probe
				return
			}
			if typ == typChunk {
				continue
			}
			if typ == typLast {
				payload = nil
			}
			if err := codec.Send(typ, payload); err != nil {
				peerDone <- err
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	codec := wire.NewCodec(conn, version)
	small := make([]byte, 64)
	var ioErr error
	out["wire.roundtrip_us"] = 1e6 * timeCalls(probeBudget, func() {
		if err := codec.Send(typEcho, small); err != nil {
			ioErr = err
			return
		}
		if _, _, err := codec.Recv(); err != nil {
			ioErr = err
		}
	})
	const chunkFloats = 64 << 10
	vector := make([]byte, 8*dim)
	perCall := timeCalls(probeBudget, func() {
		for off := 0; off < len(vector); off += 8 * chunkFloats {
			end, typ := off+8*chunkFloats, byte(typChunk)
			if end >= len(vector) {
				end, typ = len(vector), typLast
			}
			if err := codec.Send(typ, vector[off:end]); err != nil {
				ioErr = err
				return
			}
		}
		if _, _, err := codec.Recv(); err != nil {
			ioErr = err
		}
	})
	out["wire.checkpoint_mb_per_s"] = float64(len(vector)) / (1 << 20) / perCall
	conn.Close()
	if err := <-peerDone; err != nil {
		return err
	}
	return ioErr
}
