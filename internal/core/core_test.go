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

func TestStripMetadata(t *testing.T) {
	e := Envelope{Blob: []byte{1}, SeqNo: 7}
	e.StripMetadata()
	if e.SeqNo != 0 {
		t.Errorf("metadata not stripped: %+v", e)
	}
	if len(e.Blob) != 1 {
		t.Error("blob must survive stripping")
	}
	b := BlindedEnvelope{Blob: []byte{1}, Partition: 3, SeqNo: 7}
	b.StripMetadata()
	if b.SeqNo != 0 || b.Partition != 3 {
		t.Errorf("blinded metadata not stripped: %+v", b)
	}
}
