package main

import (
	"bytes"
	"io"
	"math/big"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prochlo/internal/crypto/elgamal"
	"prochlo/internal/crypto/hybrid"
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

// TestShuffler1WALNeedsKeyFile: clients encrypt C1 on shuffler1's public
// blinding key, so a shuffler1 that recovered its WAL under a fresh α would
// reduce every recovered report to a suppressed crowd of one. -wal-dir
// without -key-file is refused at start-up; with it, or without a WAL, the
// role builds.
func TestShuffler1WALNeedsKeyFile(t *testing.T) {
	dir := t.TempDir()
	wal := transport.EpochConfig{WALDir: filepath.Join(dir, "wal")}
	if _, _, _, err := buildStage("shuffler1", shuffler.Params{}, stageOpts{cfg: wal}); err == nil ||
		!strings.Contains(err.Error(), "-role shuffler1 -wal-dir needs -key-file") {
		t.Fatalf("buildStage(shuffler1 -wal-dir) = %v, want the refusal", err)
	}
	for _, o := range []stageOpts{{cfg: wal, keyFile: filepath.Join(dir, "s1.key")}, {}} {
		if _, _, _, err := buildStage("shuffler1", shuffler.Params{}, o); err != nil {
			t.Fatalf("buildStage(shuffler1, key file %q, wal %q) = %v", o.keyFile, o.cfg.WALDir, err)
		}
	}
}

// TestShuffler1KeyFileKeepsAlpha: shuffler1's -key-file holds its tier's
// blinding exponent in the El Gamal line, so every replica and every restart
// started from the file blinds with the same α and serves the same public
// blinding key A = αG, with its proof of α — and no hybrid key.
func TestShuffler1KeyFileKeepsAlpha(t *testing.T) {
	o := stageOpts{keyFile: filepath.Join(t.TempDir(), "s1.key")}
	var alphas []*big.Int
	var served [][]byte
	for start := 0; start < 2; start++ {
		st, _, _, err := buildStage("shuffler1", shuffler.Params{}, o)
		if err != nil {
			t.Fatal(err)
		}
		alpha := st.(*shuffler.Shuffler1).Alpha
		a, err := elgamal.NewKeyPair(alpha)
		if err != nil {
			t.Fatal(err)
		}
		blinding, key := st.PublicKeys()
		if key != nil || !bytes.Equal(blinding, a.ProvenKey()) {
			t.Fatalf("shuffler1 serves (%x, %x), want (αG with its proof, nil)", blinding, key)
		}
		if served, err := elgamal.ParseProvenKey(blinding); err != nil || !served.Equal(a.H) {
			t.Fatalf("shuffler1's served key parses to %v, %v; want αG", served, err)
		}
		alphas, served = append(alphas, alpha), append(served, blinding)
	}
	if alphas[0].Cmp(alphas[1]) != 0 {
		t.Fatal("a shuffler1 restarted from its key file blinds with another α")
	}
	if !bytes.Equal(served[0], served[1]) {
		t.Fatal("a shuffler1 restarted from its key file serves another A")
	}
}

// TestMetricsNameCryptoKernels scrapes a daemon's metrics listener: it
// serves prochlo_crypto_kernels_info at 1 with the kernels this process
// selected as its labels.
func TestMetricsNameCryptoKernels(t *testing.T) {
	ms := serveMetrics("127.0.0.1:0", newRegistry(), func() transport.HealthzReply { return transport.HealthzReply{Healthy: true} })
	defer ms.Close()
	resp, err := http.Get("http://" + ms.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	ladder, kdf, aead := hybrid.Kernels()
	var line string
	for _, l := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(l, "prochlo_crypto_kernels_info{") {
			line = l
		}
	}
	for _, want := range []string{`ladder="` + ladder + `"`, `kdf="` + kdf + `"`, `aead="` + aead + `"`, "} 1"} {
		if !strings.Contains(line, want) {
			t.Errorf("prochlo_crypto_kernels_info series %q lacks %s; scrape:\n%s", line, want, body)
		}
	}
	t.Logf("%s", line)
}
