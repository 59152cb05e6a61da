package sweep

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math/bits"
)

// Bitset is a fixed-size bit vector indexed by a variant's Cartesian
// coordinate (Variant.Index). Sweep manifests persist one bit per
// grid point — done and failed maps — so a 100k-variant sweep's
// checkpoint is ~12 KB, not a row list. The zero value is an empty
// set of length 0; out-of-range Set/Clear are no-ops and
// out-of-range Get is false, so a manifest whose bitmap disagrees
// with its grid can never claim progress it does not hold.
type Bitset struct {
	n    int
	bits []byte
}

// NewBitset returns an all-zero set over indices [0, n).
func NewBitset(n int) *Bitset {
	if n < 0 {
		n = 0
	}
	return &Bitset{n: n, bits: make([]byte, (n+7)/8)}
}

// Len returns the index-space size the set was built for.
func (b *Bitset) Len() int {
	if b == nil {
		return 0
	}
	return b.n
}

// Set marks index i. Out of range is a no-op.
func (b *Bitset) Set(i int) {
	if b == nil || i < 0 || i >= b.n {
		return
	}
	b.bits[i>>3] |= 1 << (i & 7)
}

// Clear unmarks index i. Out of range is a no-op.
func (b *Bitset) Clear(i int) {
	if b == nil || i < 0 || i >= b.n {
		return
	}
	b.bits[i>>3] &^= 1 << (i & 7)
}

// Get reports whether index i is marked.
func (b *Bitset) Get(i int) bool {
	if b == nil || i < 0 || i >= b.n {
		return false
	}
	return b.bits[i>>3]&(1<<(i&7)) != 0
}

// Count returns the number of marked indices.
func (b *Bitset) Count() int {
	if b == nil {
		return 0
	}
	n := 0
	for _, w := range b.bits {
		n += bits.OnesCount8(w)
	}
	return n
}

// Or merges every marked index of other into b. Sets of different
// lengths do not merge — progress recorded against one grid shape
// says nothing about another.
func (b *Bitset) Or(other *Bitset) {
	if b == nil || other == nil || b.n != other.n {
		return
	}
	for i, w := range other.bits {
		b.bits[i] |= w
	}
}

// AndNot clears every index of b that is marked in other, under the
// same equal-length rule as Or.
func (b *Bitset) AndNot(other *Bitset) {
	if b == nil || other == nil || b.n != other.n {
		return
	}
	for i, w := range other.bits {
		b.bits[i] &^= w
	}
}

// Equal reports whether b and other have the same length and marks.
func (b *Bitset) Equal(other *Bitset) bool {
	return b.Len() == other.Len() && (b.Len() == 0 || bytes.Equal(b.bits, other.bits))
}

// bitsetWire is the JSON shape: the length plus the packed bytes.
type bitsetWire struct {
	N    int    `json:"n"`
	Bits string `json:"bits"`
}

// MarshalJSON encodes the set as {"n": N, "bits": "<base64>"}.
func (b *Bitset) MarshalJSON() ([]byte, error) {
	if b == nil {
		return json.Marshal(bitsetWire{})
	}
	return json.Marshal(bitsetWire{N: b.n, Bits: base64.StdEncoding.EncodeToString(b.bits)})
}

// UnmarshalJSON decodes the wire shape, rejecting a payload whose
// byte count disagrees with its claimed length — a torn or hand-
// edited manifest must surface as corrupt, not as plausible progress.
func (b *Bitset) UnmarshalJSON(data []byte) error {
	var w bitsetWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	raw, err := base64.StdEncoding.DecodeString(w.Bits)
	if err != nil {
		return fmt.Errorf("bitset: %w", err)
	}
	if w.N < 0 || w.N > MaxVariants || len(raw) != (w.N+7)/8 {
		return fmt.Errorf("bitset: %d bytes for %d bits", len(raw), w.N)
	}
	b.n, b.bits = w.N, raw
	return nil
}
