package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// defaultCSRSHA256 is the sha256 of the default-scale graph's CSR
// arrays (N, Offsets, Dst, Weight; little-endian), recorded when
// graph.BuildCSR sorted with sort.Slice. Duplicate (Src, Dst) edges keep
// their weights in sort order, so this pins the sort's permutation,
// ties included, not just the sorted keys.
const defaultCSRSHA256 = "6d9f2227c349e4281ea4f05820154706f9f3d31cbad9f926756ad1fbf7c5b65b"

// TestDefaultGraphCSRPinned builds the default-scale graph every graph
// application shares and checks its CSR bytes against the pin.
func TestDefaultGraphCSRPinned(t *testing.T) {
	c := NewGraphSet(DefaultScale(), 42).CSR()
	h := sha256.New()
	for _, v := range []any{c.N, c.Offsets, c.Dst, c.Weight} {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != defaultCSRSHA256 {
		t.Fatalf("default graph CSR sha256 = %s, want %s (n=%d, m=%d)", got, defaultCSRSHA256, c.N, c.M())
	}
}
