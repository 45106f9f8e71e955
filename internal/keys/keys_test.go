package keys

import (
	"testing"
	"testing/quick"

	"keybin2/internal/histogram"
)

func testSet(t *testing.T) *histogram.Set {
	t.Helper()
	s, err := histogram.NewSet([]float64{0, 0}, []float64{8, 16}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCompute(t *testing.T) {
	s := testSet(t)
	k := Compute([]float64{4, 2}, s) // dim0: bin 4 of 8 (width 1), dim1: bin 1 of 8 (width 2)
	if k[0] != 4 || k[1] != 1 {
		t.Fatalf("key %v", k)
	}
}

func TestComputeInto(t *testing.T) {
	s := testSet(t)
	k := make(Key, 2)
	ComputeInto(k, []float64{7.5, 15.5}, s)
	if k[0] != 7 || k[1] != 7 {
		t.Fatalf("key %v", k)
	}
}

func TestAtDepthPrefix(t *testing.T) {
	k := Key{0b101, 0b110} // depth-3 bins
	k2 := k.AtDepth(2, 3)
	if k2[0] != 0b10 || k2[1] != 0b11 {
		t.Fatalf("prefix %v", k2)
	}
	k1 := k.AtDepth(1, 3)
	if k1[0] != 1 || k1[1] != 1 {
		t.Fatalf("depth-1 prefix %v", k1)
	}
	// at or beyond finest depth: identity (same underlying values)
	if !k.AtDepth(3, 3).Equal(k) || !k.AtDepth(5, 3).Equal(k) {
		t.Fatal("identity prefixes")
	}
}

func TestStringFormat(t *testing.T) {
	k := Key{35, 64, 6}
	if got := k.String(); got != "035.064.006" {
		t.Fatalf("String=%q", got)
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	f := func(raw []uint32) bool {
		k := Key(raw)
		got, err := unpack(k.pack())
		if err != nil {
			return false
		}
		return got.Equal(k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := unpack("abc"); err == nil {
		t.Fatal("bad packed length must fail")
	}
}

func TestEqual(t *testing.T) {
	if !(Key{1, 2}).Equal(Key{1, 2}) {
		t.Fatal("equal keys")
	}
	if (Key{1, 2}).Equal(Key{1, 3}) || (Key{1}).Equal(Key{1, 2}) {
		t.Fatal("unequal keys")
	}
}

func TestDefaultDepth(t *testing.T) {
	if d := DefaultDepth(1); d != 3 {
		t.Fatalf("tiny m depth %d", d)
	}
	// m = 80,000: log2 ≈ 16.3 → target ≈ 289 bins → depth 9 (512 bins)
	d := DefaultDepth(80000)
	if d < 8 || d > 10 {
		t.Fatalf("80k depth %d", d)
	}
	// monotone nondecreasing in m
	prev := 0
	for _, m := range []int{10, 100, 1000, 10000, 100000, 10000000} {
		d := DefaultDepth(m)
		if d < prev {
			t.Fatalf("depth not monotone at m=%d", m)
		}
		prev = d
	}
	if DefaultDepth(1<<40) != 10 {
		t.Fatal("huge m must clamp to 10")
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter(2)
	c.Add(Key{1, 2}, 1)
	c.Add(Key{1, 2}, 3)
	c.Add(Key{0, 0}, 1)
	if c.Len() != 2 {
		t.Fatalf("Len=%d", c.Len())
	}
	if c.Count(Key{1, 2}) != 4 || c.Count(Key{9, 9}) != 0 {
		t.Fatal("counts")
	}
	var total float64
	c.Each(func(k Key, n float64) { total += n })
	if total != 5 {
		t.Fatalf("Each total %v", total)
	}
}

// Property: points in the same finest bin per dimension share a key; points
// whose coordinates differ by more than a bin width in some dimension don't.
func TestKeyConsistency(t *testing.T) {
	s := testSet(t)
	a := Compute([]float64{3.1, 10.2}, s)
	b := Compute([]float64{3.9, 10.9}, s)
	if !a.Equal(b) {
		t.Fatalf("same-bin points with different keys: %v vs %v", a, b)
	}
	c := Compute([]float64{5.1, 10.2}, s)
	if a.Equal(c) {
		t.Fatal("different-bin points share a key")
	}
}

func TestCounterDecay(t *testing.T) {
	c := NewCounter(1)
	c.Add(Key{1}, 10)
	c.Add(Key{2}, 1)
	c.Decay(0.5)
	if c.Count(Key{1}) != 5 {
		t.Fatalf("decayed count %v", c.Count(Key{1}))
	}
	// Fractional mass is retained (no integer-floor annihilation)...
	if c.Count(Key{2}) != 0.5 {
		t.Fatalf("fractional mass %v", c.Count(Key{2}))
	}
	// ...but repeated decay eventually drops negligible keys.
	for i := 0; i < 40; i++ {
		c.Decay(0.5)
	}
	if c.Count(Key{2}) != 0 || c.Len() != 0 {
		t.Fatalf("negligible keys must be dropped: len %d", c.Len())
	}
	c.Add(Key{3}, 4)
	c.Decay(2) // no-op
	if c.Count(Key{3}) != 4 {
		t.Fatal("factor>=1 must be a no-op")
	}
	c.Decay(-1)
	if c.Len() != 0 {
		t.Fatal("negative factor clears")
	}
}
