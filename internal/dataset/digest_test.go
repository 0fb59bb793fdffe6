package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"flips/internal/rng"
)

// datasetDigest hashes a split's labels and feature bits in sample order.
func datasetDigest(d *Dataset) string {
	h := sha256.New()
	var w [8]byte
	for _, s := range d.Samples {
		binary.LittleEndian.PutUint64(w[:], uint64(s.Y))
		h.Write(w[:])
		for _, x := range s.X {
			binary.LittleEndian.PutUint64(w[:], math.Float64bits(x))
			h.Write(w[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGenerateDigest pins every built-in spec's generated bits, so a change
// to the data path fails here rather than in the goldens downstream.
func TestGenerateDigest(t *testing.T) {
	t.Parallel()
	// FEMNIST and Fashion-MNIST share a test set: both draw ten uniform
	// classes at the same dim and separation.
	want := map[string][2]string{
		"mit-bih-ecg":   {"20cba55f30a0428ac03a3ce7101585e00ab282cdb97d3a138b26e119b88b4ac2", "c95d822aa3b665693e275dc1fc325324dc8ea20a1af3d013bc81b3f906cca4ab"},
		"ham10000":      {"f212f29ba8caff1b6cf7b8f7b8d09d835cd2f4c74b9b1085e7d74158f717a87d", "a547b6b6c75037127696fdada7557b87579b40fcf56b91099fc73d5724da91dc"},
		"femnist":       {"739b05c5de4433eead3927062c162696b56c3247935e37b00c15085c81351633", "9b3e25c74b1e3182aeeae61532b861fb1fd3c9fca1f1e9c2e64753952509678f"},
		"fashion-mnist": {"0f4b4e2bb1f14bae90c89c596eff66323a27d1c0d87f7af30c5876d15c148f66", "9b3e25c74b1e3182aeeae61532b861fb1fd3c9fca1f1e9c2e64753952509678f"},
	}
	for _, spec := range AllSpecs() {
		train, test, err := Generate(spec.WithSizes(3000, 500), rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		got := [2]string{datasetDigest(train), datasetDigest(test)}
		if got != want[spec.Name] {
			t.Errorf("%s: train/test digests %s / %s, want %s / %s", spec.Name, got[0], got[1], want[spec.Name][0], want[spec.Name][1])
		}
	}
}
