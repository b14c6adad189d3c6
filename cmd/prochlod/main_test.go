package main

import (
	"bytes"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prochlo/internal/shuffler"
	"prochlo/internal/transport"
)

// p256Scalar is n-1 for the P-256 order n: a valid P-256 private key, and
// above the ristretto255 order, as most P-256 scalars are.
const p256Scalar = "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632550"

// TestLoadKeysRefusesOtherGroupScalar: a key file holds bare scalars, so the
// one thing that can give a P-256 file away is a scalar above the
// ristretto255 order. Such a file must be refused by name, in either line,
// instead of failing later as undecryptable reports; a file this build wrote
// reloads to the same key.
func TestLoadKeysRefusesOtherGroupScalar(t *testing.T) {
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
		"hybrid key":   {p256Scalar, ownLines[1]},
		"blinding key": {ownLines[0], p256Scalar},
	} {
		path := filepath.Join(dir, "p256.key")
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o600); err != nil {
			t.Fatal(err)
		}
		_, err := loadKeys(path, true)
		if err == nil || !strings.Contains(err.Error(), "key file "+path+": scalar is not below the ristretto255 group order") {
			t.Errorf("%s on P-256: loadKeys = %v, want the range refusal", name, err)
		}
	}
}

// TestSGXRefusesWALDir: the enclave draws its key per process (§4.1.1), so a
// restarted -sgx daemon could open none of the reports a WAL recovered for
// it. The pair is refused at start-up, as -sgx -key-file is, and the
// shuffler role alone still builds without either.
func TestSGXRefusesWALDir(t *testing.T) {
	wal := stageOpts{sgx: true, cfg: transport.EpochConfig{WALDir: t.TempDir()}}
	if _, _, _, err := buildStage("shuffler", shuffler.Params{}, wal); err == nil ||
		!strings.Contains(err.Error(), "-sgx runs the shuffler role without -key-file or -wal-dir") {
		t.Fatalf("buildStage(-sgx -wal-dir) = %v, want the refusal", err)
	}
	if _, ca, _, err := buildStage("shuffler", shuffler.Params{}, stageOpts{sgx: true}); err != nil || ca == nil {
		t.Fatalf("buildStage(-sgx) = %v", err)
	}
}

// TestShuffler1KeyFileKeepsAlpha: shuffler1's -key-file holds its tier's
// blinding exponent in the El Gamal line, so every replica and every restart
// started from the file blinds with the same α — and still serves no key.
func TestShuffler1KeyFileKeepsAlpha(t *testing.T) {
	o := stageOpts{keyFile: filepath.Join(t.TempDir(), "s1.key")}
	var alphas []*big.Int
	for start := 0; start < 2; start++ {
		st, _, _, err := buildStage("shuffler1", shuffler.Params{}, o)
		if err != nil {
			t.Fatal(err)
		}
		if blinding, key := st.PublicKeys(); blinding != nil || key != nil {
			t.Fatal("shuffler1 serves a key")
		}
		alphas = append(alphas, st.(*shuffler.Shuffler1).Alpha)
	}
	if alphas[0].Cmp(alphas[1]) != 0 {
		t.Fatal("a shuffler1 restarted from its key file blinds with another α")
	}
}
