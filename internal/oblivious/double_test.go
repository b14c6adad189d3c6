package oblivious

import "testing"

func TestDoubleShufflePermutation(t *testing.T) {
	n := 2000
	in := makeItems(n, 24)
	e := testEnclave()
	first := NewStashShuffle(e, Passthrough{}, n)
	first.Seed = 51
	d := DoubleStash(first)
	out, err := d.Shuffle(in)
	if err != nil {
		t.Fatal(err)
	}
	assertPermutation(t, in, out)
	if d.Name() != "Double(StashShuffle,StashShuffle)" {
		t.Errorf("Name = %q", d.Name())
	}
}

func TestDoubleShuffleIndependentPasses(t *testing.T) {
	// A double shuffle must differ from its first pass alone (the second
	// pass re-permutes).
	n := 500
	in := makeItems(n, 16)
	e := testEnclave()
	first := NewStashShuffle(e, Passthrough{}, n)
	first.Seed = 53
	firstOut, err := first.Shuffle(in)
	if err != nil {
		t.Fatal(err)
	}
	first2 := NewStashShuffle(e, Passthrough{}, n)
	first2.Seed = 53
	d := DoubleStash(first2)
	doubleOut, err := d.Shuffle(in)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range firstOut {
		if string(firstOut[i]) == string(doubleOut[i]) {
			same++
		}
	}
	if same > n/10 {
		t.Errorf("double shuffle agrees with single pass on %d/%d positions", same, n)
	}
}
