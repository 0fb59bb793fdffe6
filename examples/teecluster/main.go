// Private clustering over the network (paper §3.3, Figure 3): an aggregator
// boots a TEE service, remote parties attest it, open encrypted channels,
// and submit their label distributions; clustering and participant selection
// run inside the enclave and only the selected party IDs ever leave it.
//
// This example exercises the same wire protocol as `cmd/flipsd` — it uses
// the internal tee package directly to show every protocol step, including
// a tampered enclave being rejected by attestation.
//
//	go run ./examples/teecluster
package main

import (
	"fmt"
	"log"

	"flips/internal/tee"
	"flips/internal/tensor"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// --- Aggregator side: boot the enclave and serve it over TCP. ---
	code := tee.ClusteringCode{Version: tee.CodeVersion, MaxK: 10, Repeats: 10}
	hwPub, hwPriv, err := tee.GenerateHardwareKey()
	if err != nil {
		return err
	}
	enclave, err := tee.NewEnclave(code, hwPriv)
	if err != nil {
		return err
	}
	server := tee.NewServer(enclave)
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer server.Close()
	fmt.Printf("aggregator: TEE service on %s\n", addr)
	fmt.Printf("aggregator: enclave measurement %s\n", enclave.Measurement())

	// --- Shared attestation service, provisioned with the expected
	// measurement and the hardware vendor's public key. ---
	attest, err := tee.NewAttestationServer(hwPub, code.Measure())
	if err != nil {
		return err
	}

	// --- Party side: 30 parties in three label groups attest, establish
	// secure channels and submit their (private) label distributions. ---
	groups := []tensor.Vec{
		{120, 3, 2, 1, 1}, // mostly label 0
		{2, 110, 4, 2, 2}, // mostly label 1
		{1, 2, 3, 90, 80}, // labels 3 and 4
	}
	const parties = 30
	dists := make([]tensor.Vec, parties)
	for id := range dists {
		dists[id] = groups[id%3]
	}
	remote, err := tee.DialEnclave(addr)
	if err != nil {
		return err
	}
	err = tee.SubmitAll(remote, attest, dists)
	remote.Close()
	if err != nil {
		return err
	}
	fmt.Printf("parties: %d label distributions submitted over encrypted channels\n", parties)

	// --- A tampered enclave (different clustering code) fails attestation,
	// so no party would ever send it a label distribution. ---
	evil, err := tee.NewEnclave(tee.ClusteringCode{Version: "evil", MaxK: 10, Repeats: 10}, hwPriv)
	if err != nil {
		return err
	}
	probe := tee.NewPartyClient(0, attest)
	if err := probe.Handshake(evil); err != nil {
		fmt.Printf("security: tampered enclave rejected (%v)\n", err)
	} else {
		return fmt.Errorf("tampered enclave unexpectedly passed attestation")
	}

	// --- Aggregator: cluster inside the enclave, then drive selection. ---
	agg, err := tee.DialEnclave(addr)
	if err != nil {
		return err
	}
	defer agg.Close()
	if err := agg.Cluster(42); err != nil {
		return err
	}
	k, err := agg.NumClusters()
	if err != nil {
		return err
	}
	fmt.Printf("enclave: clustered %d parties into %d label-distribution groups\n", parties, k)

	for round := 0; round < 3; round++ {
		selected, err := agg.SelectParticipants(round, 6)
		if err != nil {
			return err
		}
		fmt.Printf("round %d: selected parties %v\n", round, selected)
		if err := agg.ObserveRound(selected, selected, nil, round); err != nil {
			return err
		}
	}

	// --- End of job: the enclave wipes all private state (attestable). ---
	if err := agg.Wipe(); err != nil {
		return err
	}
	fmt.Println("enclave: wiped — label distributions and cluster membership destroyed")
	return nil
}
