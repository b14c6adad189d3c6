package main

import (
	"bytes"
	crand "crypto/rand"
	"encoding/hex"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prochlo/internal/crypto/group"
	"prochlo/internal/crypto/hybrid"
)

// TestLoadKeysRefusesOtherGroupScalar: a key file holds bare scalars, so the
// one thing that can give a P-256 file away is a scalar above the
// ristretto255 order — which most of them are. Such a file must be refused by
// name, in either line, instead of failing later as undecryptable reports;
// a file this build wrote reloads to the same key.
func TestLoadKeysRefusesOtherGroupScalar(t *testing.T) {
	var p256Scalar []byte
	for p256Scalar == nil || new(big.Int).SetBytes(p256Scalar).Cmp(group.Default().Order()) < 0 {
		priv, err := hybrid.GenerateKeyGroup(group.P256, crand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		p256Scalar = priv.Bytes()
	}
	dir := t.TempDir()
	own := filepath.Join(dir, "own.key")
	sec, err := loadKeys(own, true)
	if err != nil {
		t.Fatal(err)
	}
	again, err := loadKeys(own, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Priv.Bytes(), sec.Priv.Bytes()) || again.Blinding.X.Cmp(sec.Blinding.X) != 0 {
		t.Fatal("reloaded key file holds different keys")
	}

	raw, err := os.ReadFile(own)
	if err != nil {
		t.Fatal(err)
	}
	ownLines := strings.Fields(string(raw))
	for name, lines := range map[string][]string{
		"hybrid key":   {hex.EncodeToString(p256Scalar), ownLines[1]},
		"blinding key": {ownLines[0], hex.EncodeToString(p256Scalar)},
	} {
		path := filepath.Join(dir, "p256.key")
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o600); err != nil {
			t.Fatal(err)
		}
		_, err := loadKeys(path, true)
		if err == nil || !strings.Contains(err.Error(), "key is on another group") ||
			!strings.Contains(err.Error(), "this build deploys ristretto255") {
			t.Errorf("%s on P-256: loadKeys = %v, want the other-group refusal", name, err)
		}
	}
}
