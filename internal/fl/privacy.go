package fl

import (
	"crypto/ecdh"
	"fmt"
	"math"

	"flips/internal/parallel"
	"flips/internal/rng"
	"flips/internal/secagg"
	"flips/internal/tensor"
)

// PrivacyConfig is the aggregation privacy middleware: a composable chain of
// stages applied around the fold seam, in the fixed order
//
//	mask → clip → noise → fold
//
// reading outside-in — masking is the transport (the server only ever sums
// ciphertext-like ring elements), clipping bounds each party's contribution
// before it is encoded, and noise perturbs the folded delta after decoding.
// Every stage composes with every aggregation policy (SyncRounds, Buffered,
// SemiSync) and with parameter-axis sharded folds; a zero PrivacyConfig is
// the identity chain and leaves the engine's float behavior byte-identical
// to a build without the middleware.
type PrivacyConfig struct {
	// Mask enables Bonawitz-style pairwise additive masking with dropout
	// recovery: each aggregation wave's cohort derives pairwise mask streams
	// from X25519 agreements, every member Shamir-shares its key-derivation
	// secret with the cohort at wave start, and the coordinator reconstructs
	// the masks of members that drop mid-wave (deadline miss, chaos outage,
	// unencodable update) from ShareThreshold surviving shares. When
	// survivors fall below the threshold the wave aborts cleanly — the model
	// is untouched and RoundStats.MaskAborted is surfaced — instead of
	// folding a mask-corrupted sum. Requires Clip > 0 (the fixed-point
	// encoding needs a per-update magnitude bound) and the FedAvg mean fold.
	Mask bool
	// Clip bounds each local update's L2 norm: an update with larger norm is
	// scaled down to Clip before masking/folding. Under Mask it doubles as
	// the fixed-point headroom bound; alone it is the standard defense-in-
	// depth norm bound (and the sensitivity bound Epsilon's noise is
	// calibrated against).
	Clip float64
	// Epsilon, when positive, adds per-coordinate Laplace noise to the folded
	// delta with scale 2·Clip/(ε·contributors) — central DP at the
	// aggregator, calibrated to the clipped per-party sensitivity. Requires
	// Clip > 0. The noise stream is a pure function of (Seed, aggregation
	// step), so runs stay bit-identical at every parallelism and shard count.
	Epsilon float64
	// ShareThreshold is the minimum number of surviving cohort members
	// required to reconstruct a dropped member's masks. Zero defaults to a
	// cohort majority (k/2 + 1). Waves with dropouts and fewer survivors
	// abort (RoundStats.MaskAborted) rather than degrade.
	ShareThreshold int
}

// Enabled reports whether any stage of the privacy chain is active.
func (p PrivacyConfig) Enabled() bool {
	return p.Mask || p.Clip > 0 || p.Epsilon > 0
}

// validate checks the chain's internal consistency; cross-field checks
// against the rest of the Config live in Config.validate.
func (p PrivacyConfig) validate() error {
	if p.Clip < 0 {
		return fmt.Errorf("fl: negative privacy clip %v", p.Clip)
	}
	if p.Epsilon < 0 {
		return fmt.Errorf("fl: negative privacy epsilon %v", p.Epsilon)
	}
	if p.ShareThreshold < 0 {
		return fmt.Errorf("fl: negative share threshold %d", p.ShareThreshold)
	}
	if p.Mask && p.Clip <= 0 {
		return fmt.Errorf("fl: masked aggregation requires Clip > 0 (the fixed-point encoding needs a per-update magnitude bound)")
	}
	if p.Epsilon > 0 && p.Clip <= 0 {
		return fmt.Errorf("fl: privacy epsilon %v requires Clip > 0 (noise is calibrated to the clipped sensitivity)", p.Epsilon)
	}
	if p.ShareThreshold > 0 && !p.Mask {
		return fmt.Errorf("fl: ShareThreshold %d set without Mask", p.ShareThreshold)
	}
	return nil
}

// maskContrib is one survivor's usable contribution to a mask wave: the
// clipped dispatch-relative delta and its aggregation weight.
type maskContrib struct {
	memberIdx int
	delta     tensor.Vec
	weight    float64
}

// maskWave is one secure-aggregation cohort: the set of parties that
// enrolled together (sync: the round's invited parties; async: one dispatch
// wave), their escrowed Shamir shares, and the contributions that actually
// arrived. The wave settles — its masked sum is decoded, with dropout masks
// reconstructed — at the policy's barrier: the sync round fold, the arrival
// of the last member (Buffered), or the window deadline (SemiSync).
type maskWave struct {
	tag       uint64 // mask-stream round tag (the engine wave counter)
	version   int    // model version at dispatch, for the staleness discount
	members   []int  // cohort party IDs in dispatch order
	arrived   []bool // per member: contributed a usable (finite) update
	contribs  []maskContrib
	threshold int // survivors required to reconstruct a dropout
	splitT    int // polynomial threshold actually used to split (≤ holders)
	// pairs[i*k+j] is the pairwise mask seed between members i and j
	// (symmetric, diagonal unused); shares[i*k+j] is member i's escrowed
	// secret share held by member j.
	pairs  [][32]byte
	shares []secagg.Share
	// nProcessed counts members whose arrival events have been consumed
	// (contributed, rejected as non-finite, or discarded late); the wave's
	// storage can be recycled once settled and fully processed.
	nProcessed int
	settled    bool
}

// partyKeys is one party's deterministic key material: the derived secret
// scalar the cohort escrows, and its X25519 key pair.
type partyKeys struct {
	secret [32]byte
	priv   *ecdh.PrivateKey
	pub    *ecdh.PublicKey
}

// pairMiss names a cohort pair (by member index, i < j) whose mask seed is
// not cached yet.
type pairMiss struct{ i, j int }

// maskWorker is the scratch one pool worker owns during a wave pass: a full
// dim+1 accumulator for the masked sum, the generator state its pair masks
// expand through, the Shamir coefficient buffer, and the lowest-index error
// its items reported.
type maskWorker struct {
	acc    []uint64
	stream secagg.MaskStream
	coeff  []uint64
	err    error
	errAt  int
}

func (mw *maskWorker) fail(item int, err error) {
	if mw.err == nil || item < mw.errAt {
		mw.err, mw.errAt = err, item
	}
}

// privacyState is the engine-side state of the privacy middleware: cached
// deterministic key material, the active mask waves, and the reusable
// scratch that keeps steady-state masking allocation-free.
//
// A wave's crypto runs on the coordinator's pool in three passes — pair
// agreements and Shamir splits at enrolment, the masked sum with its dropout
// unmasking at settlement. Each pass is a method value bound once here and
// parameterized through the fields below, so dispatching it allocates
// nothing; items write index-addressed storage or a per-worker accumulator,
// and the maps are only touched on the policy goroutine between passes.
type privacyState struct {
	pc   PrivacyConfig
	seed uint64
	dim  int // model parameter count; masked vectors carry dim+1 coordinates
	pool *parallel.Pool

	keys      map[int]partyKeys
	pairSeeds map[uint64][32]byte

	acc     []uint64     // the settled wave's masked sum, dim+1; worker 0 accumulates into it
	workers []maskWorker // per pool worker, grown to the widest pass so far

	wave       *maskWave   // the wave the running pass works on
	cohortKeys []partyKeys // its members' key material, by member index
	holderXs   []uint64    // share evaluation points: the cohort's at enrolment, the recovery holders' at settlement
	misses     []pairMiss  // its pairs that need a first-use agreement
	sumSplit   int         // coordinate ranges per contributor in the sum pass
	sumItems   int         // contributor × range items; the rest of the pass unmasks recSeeds

	agreePass, splitPass, sumPass func(worker, item int)

	basis    secagg.LagrangeBasis // over the first splitT survivors of the settling wave
	combine  []secagg.Share       // reconstruction input scratch
	recSeeds [][32]byte           // (dropout × survivor) pair seeds left in the survivors' sum
	recSigns []bool               // matching mask signs for the unmask items

	waves     []*maskWave // active (unsettled) waves in dispatch order
	freeWaves []*maskWave

	decoded  []tensor.Vec // per-cycle decoded wave deltas, pooled
	ndecoded int

	noiseSteps uint64
}

func newPrivacyState(cfg *Config, dim int, pool *parallel.Pool) *privacyState {
	ps := &privacyState{
		pc:   cfg.Privacy,
		seed: cfg.Seed,
		dim:  dim,
		pool: pool,
	}
	if ps.pc.Mask {
		ps.keys = make(map[int]partyKeys)
		ps.pairSeeds = make(map[uint64][32]byte)
		ps.acc = make([]uint64, dim+1)
		ps.workers = []maskWorker{{acc: ps.acc}}
		ps.agreePass, ps.splitPass, ps.sumPass = ps.agreeItem, ps.splitItem, ps.sumItem
	}
	return ps
}

// keysFor returns party id's deterministic key material, caching across
// waves (ECDH key expansion is the expensive part of a party's first wave).
func (ps *privacyState) keysFor(id int) (partyKeys, error) {
	if pk, ok := ps.keys[id]; ok {
		return pk, nil
	}
	pk := partyKeys{secret: secagg.DeriveSecret(ps.seed, id)}
	priv, err := secagg.PrivateKeyFromSecret(&pk.secret)
	if err != nil {
		return partyKeys{}, err
	}
	pk.priv, pk.pub = priv, priv.PublicKey()
	ps.keys[id] = pk
	return pk, nil
}

func pairKey(a, b int) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// effectiveThreshold resolves the reconstruction threshold for a k-member
// cohort: the configured ShareThreshold, or a cohort majority by default.
func (ps *privacyState) effectiveThreshold(k int) int {
	if ps.pc.ShareThreshold > 0 {
		return ps.pc.ShareThreshold
	}
	return k/2 + 1
}

// passWorkers returns the scratch of the workers an n-item pass can run on,
// growing the set on first use of a wider pass.
func (ps *privacyState) passWorkers(n int) []maskWorker {
	nw := min(ps.pool.Width(), n)
	for len(ps.workers) < nw {
		ps.workers = append(ps.workers, maskWorker{acc: make([]uint64, ps.dim+1)})
	}
	return ps.workers[:nw]
}

// runPass runs one enrolment pass over n items of ps.wave on the pool and
// returns the error of the lowest failing item, so the reported error does
// not depend on how the items were spread over workers.
func (ps *privacyState) runPass(n int, pass func(worker, item int)) error {
	workers := ps.passWorkers(n)
	ps.pool.ForEachWorker(n, pass)
	var err error
	at := n
	for wi := range workers {
		if mw := &workers[wi]; mw.err != nil {
			if mw.errAt < at {
				err, at = mw.err, mw.errAt
			}
			mw.err = nil
		}
	}
	return err
}

// beginWave enrolls a cohort: every pair gets its mask seed — cached, or
// agreed by real X25519 on the pool when the pair meets for the first time —
// and every member Shamir-shares its key secret among the cohort, the escrow
// dropout recovery draws on. Seeds and shares are pure functions of (job
// seed, party, tag), so the wave is the same at every pool width. cohort is
// engine scratch; the wave copies it. Steady state reuses pooled wave
// storage end to end.
func (ps *privacyState) beginWave(tag uint64, version int, cohort []int) (*maskWave, error) {
	var w *maskWave
	if n := len(ps.freeWaves); n > 0 {
		w = ps.freeWaves[n-1]
		ps.freeWaves = ps.freeWaves[:n-1]
	} else {
		w = &maskWave{}
	}
	k := len(cohort)
	w.tag = tag
	w.version = version
	w.members = append(w.members[:0], cohort...)
	if cap(w.arrived) < k {
		w.arrived = make([]bool, k)
	}
	w.arrived = w.arrived[:k]
	clear(w.arrived)
	w.contribs = w.contribs[:0]
	w.nProcessed = 0
	w.settled = false
	w.threshold = ps.effectiveThreshold(k)
	w.splitT = min(w.threshold, k-1)
	ps.wave = w

	// Share evaluation points are party IDs + 1 (distinct, nonzero).
	ps.cohortKeys, ps.holderXs = ps.cohortKeys[:0], ps.holderXs[:0]
	for _, id := range w.members {
		pk, err := ps.keysFor(id)
		if err != nil {
			return nil, err
		}
		ps.cohortKeys = append(ps.cohortKeys, pk)
		ps.holderXs = append(ps.holderXs, uint64(id)+1)
	}

	if cap(w.pairs) < k*k {
		w.pairs = make([][32]byte, k*k)
	}
	w.pairs = w.pairs[:k*k]
	ps.misses = ps.misses[:0]
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if s, ok := ps.pairSeeds[pairKey(w.members[i], w.members[j])]; ok {
				w.pairs[i*k+j], w.pairs[j*k+i] = s, s
			} else {
				ps.misses = append(ps.misses, pairMiss{i, j})
			}
		}
	}
	if err := ps.runPass(len(ps.misses), ps.agreePass); err != nil {
		return nil, err
	}
	for _, m := range ps.misses {
		ps.pairSeeds[pairKey(w.members[m.i], w.members[m.j])] = w.pairs[m.i*k+m.j]
	}

	if w.splitT >= 1 && k >= 2 {
		if cap(w.shares) < k*k {
			w.shares = make([]secagg.Share, k*k)
		}
		w.shares = w.shares[:k*k]
		if err := ps.runPass(k, ps.splitPass); err != nil {
			return nil, err
		}
	} else {
		w.shares = w.shares[:0]
	}
	return w, nil
}

// agreeItem runs the first-use X25519 agreement of one missing cohort pair
// into the wave's seed table.
func (ps *privacyState) agreeItem(worker, item int) {
	w, m := ps.wave, ps.misses[item]
	s, err := secagg.PairSeed(ps.cohortKeys[m.i].priv, ps.cohortKeys[m.j].pub)
	if err != nil {
		ps.workers[worker].fail(item, err)
		return
	}
	k := len(w.members)
	w.pairs[m.i*k+m.j], w.pairs[m.j*k+m.i] = s, s
}

// splitItem escrows member item's key secret: one polynomial, evaluated at
// every cohort member's point straight into the member's share row. The
// diagonal — a member's share of its own secret — is never read.
func (ps *privacyState) splitItem(worker, item int) {
	w, mw := ps.wave, &ps.workers[worker]
	k := len(w.members)
	var err error
	mw.coeff, err = secagg.SplitSecretInto(w.shares[item*k:(item+1)*k], &ps.cohortKeys[item].secret, ps.holderXs, w.splitT, w.tag, mw.coeff)
	if err != nil {
		mw.fail(item, err)
	}
}

// contribute records member memberIdx's usable (finite, clipped) update.
func (ps *privacyState) contribute(w *maskWave, memberIdx int, delta tensor.Vec, weight float64) {
	w.arrived[memberIdx] = true
	w.contribs = append(w.contribs, maskContrib{memberIdx: memberIdx, delta: delta, weight: weight})
	w.nProcessed++
}

// markRejected records that a member's arrival was processed but unusable
// (non-finite update): the member counts as a dropout for reconstruction.
func (ps *privacyState) markRejected(w *maskWave) {
	w.nProcessed++
}

func (ps *privacyState) freeWave(w *maskWave) {
	ps.freeWaves = append(ps.freeWaves, w)
}

// maybeFree recycles a settled wave once every member's arrival event has
// been consumed (late arrivals of a settled wave are discarded at pop but
// still hold a pointer to it until then).
func (ps *privacyState) maybeFree(w *maskWave) {
	if w.settled && w.nProcessed >= len(w.members) {
		ps.freeWave(w)
	}
}

// nextDecoded hands out a pooled vector for a settled wave's decoded delta;
// the pool cursor resets each aggregation cycle (endCycle), after the fold
// has consumed the vectors.
func (ps *privacyState) nextDecoded() tensor.Vec {
	if ps.ndecoded == len(ps.decoded) {
		ps.decoded = append(ps.decoded, tensor.NewVec(ps.dim))
	}
	v := ps.decoded[ps.ndecoded]
	ps.ndecoded++
	return v
}

func (ps *privacyState) endCycle() {
	ps.ndecoded = 0
}

// waveResult is a settled wave's folded contribution.
type waveResult struct {
	delta     tensor.Vec // decoded weighted-mean delta, nil when nothing to apply
	weight    float64    // decoded total aggregation weight Σw
	survivors int
	aborted   bool
}

// settleWave closes a wave: it computes the masked sum of the survivors'
// encoded contributions (every survivor masked against the full cohort),
// removes the residual masks of every dropout — recovered from the escrowed
// shares — and decodes the weighted-mean delta. With dropouts present and
// fewer than threshold survivors it aborts instead — nothing is decoded,
// nothing is applied.
//
// The sum runs on the pool in one pass whose items are the contributors
// (split into chunk-aligned coordinate ranges when there are fewer
// contributors than workers and the vector spans several mask chunks)
// followed by the dropout seeds to unmask. Every item adds into its
// worker's own accumulator and the accumulators are added up afterwards;
// addition in Z_2^64 is associative and commutative, so the sum is the same
// bit for bit however the items were spread.
func (ps *privacyState) settleWave(w *maskWave) (waveResult, error) {
	w.settled = true
	nsurv := len(w.contribs)
	ndrop := len(w.members) - nsurv
	if ndrop > 0 && nsurv < w.threshold {
		return waveResult{aborted: true, survivors: nsurv}, nil
	}
	if nsurv == 0 {
		// No dropouts either (or the abort above would have fired): an empty
		// cohort wave applies nothing.
		return waveResult{survivors: 0}, nil
	}

	// Dropout recovery comes first, so a wave whose escrow does not verify
	// fails before anything is summed.
	ps.recSeeds, ps.recSigns = ps.recSeeds[:0], ps.recSigns[:0]
	if ndrop > 0 {
		if err := ps.reconstructDropouts(w); err != nil {
			return waveResult{}, err
		}
	}

	ps.wave = w
	ps.sumSplit = 1
	if width := ps.pool.Width(); nsurv < width {
		ps.sumSplit = min((width+nsurv-1)/nsurv, ps.maskChunks())
	}
	ps.sumItems = nsurv * ps.sumSplit
	n := ps.sumItems + len(ps.recSeeds)
	workers := ps.passWorkers(n)
	for wi := range workers {
		clear(workers[wi].acc)
	}
	ps.pool.ForEachWorker(n, ps.sumPass)
	for wi := 1; wi < len(workers); wi++ {
		for c, v := range workers[wi].acc {
			ps.acc[c] += v
		}
	}

	// Decode. The weight coordinate gives Σw; each parameter coordinate
	// decodes to Σ w_i·d_i, so the mean delta is their ratio.
	wsum := secagg.DecodeFixed(ps.acc[ps.dim])
	if wsum <= 0 {
		return waveResult{survivors: nsurv}, nil
	}
	out := ps.nextDecoded()
	for c := range out {
		out[c] = secagg.DecodeFixed(ps.acc[c]) / wsum
	}
	return waveResult{delta: out, weight: wsum, survivors: nsurv}, nil
}

// maskChunks is the number of mask-stream chunks in a masked vector's dim+1
// coordinates.
func (ps *privacyState) maskChunks() int { return ps.dim/secagg.MaskChunk + 1 }

// sumItem is one item of the settlement pass: a contributor's masked upload
// over one coordinate range, or — past sumItems — one dropout seed to
// unmask over the whole vector.
func (ps *privacyState) sumItem(worker, item int) {
	w, mw := ps.wave, &ps.workers[worker]
	if item >= ps.sumItems {
		r := item - ps.sumItems
		mw.stream.AddPairMask(mw.acc, &ps.recSeeds[r], w.tag, 0, ps.dim+1, ps.recSigns[r])
		return
	}
	// Ranges are cut on chunk boundaries so no mask chunk is keyed twice.
	chunks, b := ps.maskChunks(), item%ps.sumSplit
	lo := b * chunks / ps.sumSplit * secagg.MaskChunk
	hi := min((b+1)*chunks/ps.sumSplit*secagg.MaskChunk, ps.dim+1)
	ps.addMaskedUpload(mw, w, &w.contribs[item/ps.sumSplit], lo, hi)
}

// addMaskedUpload adds what an honest client uploads over [lo, hi) into the
// worker's accumulator: its encoded weighted delta (index dim carries the
// weight) plus its pairwise masks against every other cohort member — so
// masking cost is accounted per party. Allocation-free.
func (ps *privacyState) addMaskedUpload(mw *maskWorker, w *maskWave, cb *maskContrib, lo, hi int) {
	acc := mw.acc
	for c := lo; c < hi; c++ {
		x := cb.weight
		if c < ps.dim {
			x *= cb.delta[c]
		}
		v, err := secagg.EncodeFixed(x)
		if err != nil {
			// Unreachable by construction: contributions are finite and
			// clipped, and validate bounded weight × clip against the
			// fixed-point headroom.
			panic(fmt.Sprintf("fl: masked encode of validated contribution failed: %v", err))
		}
		acc[c] += v
	}
	k, si := len(w.members), cb.memberIdx
	for oj := 0; oj < k; oj++ {
		if oj == si {
			continue
		}
		// Member a adds the pair mask when a < b, subtracts otherwise;
		// survivor pairs cancel exactly in the uint64 sum.
		mw.stream.AddPairMask(acc, &w.pairs[si*k+oj], w.tag, lo, hi, w.members[si] > w.members[oj])
	}
}

// reconstructDropouts recovers every dropout's key from the escrow and fills
// recSeeds/recSigns with the (dropout, survivor) masks the survivors' sum
// still carries. All dropouts of a wave are recovered from the same first
// splitT survivors (contribution order — deterministic at every pool width),
// so the Lagrange basis over those holders is computed once. Each dropout's
// shares combine into its secret, the secret rebuilds its private key, and
// the key's public half must equal the public key the dropout enrolled with.
// A matching public key means the rebuilt scalar is the one that made the
// enrolment agreements, so its seeds with the survivors are exactly the
// wave's enrolled w.pairs and no agreement is run twice; a mismatch means a
// holder returned a bad share, and the wave fails instead of folding a sum
// unmasked with the wrong streams.
func (ps *privacyState) reconstructDropouts(w *maskWave) error {
	k := len(w.members)
	holders := w.contribs[:w.splitT]
	ps.holderXs = ps.holderXs[:0]
	for ci := range holders {
		ps.holderXs = append(ps.holderXs, uint64(w.members[holders[ci].memberIdx])+1)
	}
	if err := ps.basis.Reset(ps.holderXs); err != nil {
		return fmt.Errorf("fl: mask reconstruction: %w", err)
	}
	for di := 0; di < k; di++ {
		if w.arrived[di] {
			continue
		}
		d := w.members[di]
		ps.combine = ps.combine[:0]
		for ci := range holders {
			ps.combine = append(ps.combine, w.shares[di*k+holders[ci].memberIdx])
		}
		secret, err := ps.basis.Combine(ps.combine)
		if err != nil {
			return fmt.Errorf("fl: mask reconstruction for party %d: %w", d, err)
		}
		priv, err := secagg.PrivateKeyFromSecret(&secret)
		if err != nil {
			return fmt.Errorf("fl: mask reconstruction for party %d: %w", d, err)
		}
		if !priv.PublicKey().Equal(ps.keys[d].pub) {
			return fmt.Errorf("fl: mask reconstruction for party %d: reconstructed key does not match its enrolled public key", d)
		}
		for ci := range w.contribs {
			si := w.contribs[ci].memberIdx
			ps.recSeeds = append(ps.recSeeds, w.pairs[di*k+si])
			// Survivor s contributed the mask with sign +(s < d); removal
			// applies the opposite sign.
			ps.recSigns = append(ps.recSigns, w.members[si] < d)
		}
	}
	return nil
}

// clipDeltaInPlace scales delta down to L2 norm clip when it exceeds it —
// the chain's clip stage. Non-finite vectors pass through untouched (NaN
// norms compare false) and are rejected at the finiteness gate instead.
func clipDeltaInPlace(delta tensor.Vec, clip float64) {
	if n := delta.Norm2(); n > clip {
		delta.ScaleInPlace(clip / n)
	}
}

// clipParamsInPlace clips the delta (params − global) around global without
// materializing it: the sync plaintext fold carries raw parameters.
func clipParamsInPlace(params, global tensor.Vec, clip float64) {
	var sq float64
	for i := range params {
		d := params[i] - global[i]
		sq += d * d
	}
	n := math.Sqrt(sq)
	if n > clip {
		s := clip / n
		for i := range params {
			params[i] = global[i] + (params[i]-global[i])*s
		}
	}
}

// addNoise is the chain's noise stage: per-coordinate Laplace noise on the
// folded delta, scale 2·Clip/(ε·contributors). The stream derives from
// (seed, step counter) alone and is drawn sequentially on the policy
// goroutine, so it is invariant to parallelism and shard count.
func (ps *privacyState) addNoise(delta tensor.Vec, contributors int) {
	if ps.pc.Epsilon <= 0 || contributors <= 0 {
		return
	}
	ps.noiseSteps++
	r := rng.New(ps.seed ^ 0xD05EB10C ^ ps.noiseSteps*0x9E3779B97F4A7C15)
	b := 2 * ps.pc.Clip / (ps.pc.Epsilon * float64(contributors))
	for i := range delta {
		delta[i] += r.Laplace(b)
	}
}
