package core

import "testing"

func TestHashCrowdIDDeterministic(t *testing.T) {
	a := HashCrowdID("app:chrome")
	b := HashCrowdID("app:chrome")
	c := HashCrowdID("app:firefox")
	if a != b {
		t.Error("HashCrowdID not deterministic")
	}
	if a == c {
		t.Error("distinct labels collided")
	}
}
