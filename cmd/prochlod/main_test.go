package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/big"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

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
	if _, _, err := buildStage("shuffler", shuffler.Params{}, wal); err == nil ||
		!strings.Contains(err.Error(), "-sgx runs the shuffler role without -key-file or -wal-dir") {
		t.Fatalf("buildStage(-sgx -wal-dir) = %v, want the refusal", err)
	}
	if _, ca, err := buildStage("shuffler", shuffler.Params{}, stageOpts{sgx: true}); err != nil || ca == nil {
		t.Fatalf("buildStage(-sgx) = %v", err)
	}
}

// TestAnalyzerRefusesWALDir: the analyzer keeps its histogram in memory,
// cuts every batch it keeps as an epoch and forwards nothing, so -wal-dir
// would be a directory left empty and a promise of durability not kept,
// -flush-at or -epoch a size or timer it does not follow, and -next a tier it
// never pushes to. Each is refused at start-up, by its flag's name, the
// directory untouched; without them the role builds, serving its hybrid key
// alone.
func TestAnalyzerRefusesWALDir(t *testing.T) {
	dir := t.TempDir()
	for name, o := range map[string]stageOpts{
		"-wal-dir":  {cfg: transport.EpochConfig{WALDir: dir}},
		"-flush-at": {cfg: transport.EpochConfig{FlushAt: 100}},
		"-epoch":    {cfg: transport.EpochConfig{Interval: time.Second}},
		"-next":     {nexts: []string{"127.0.0.1:1"}},
	} {
		if _, _, err := buildStage("analyzer", shuffler.Params{}, o); err == nil ||
			!strings.Contains(err.Error(), "-role analyzer keeps nothing on disk") || !strings.Contains(err.Error(), name) {
			t.Fatalf("buildStage(analyzer %s) = %v, want the refusal naming %s", name, err, name)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("the refused -wal-dir holds %d entries (%v), want none", len(entries), err)
	}
	st, _, err := buildStage("analyzer", shuffler.Params{}, stageOpts{})
	if err != nil {
		t.Fatalf("buildStage(analyzer) = %v", err)
	}
	if blinding, key := st.PublicKeys(); blinding != nil || len(key) == 0 {
		t.Fatalf("the analyzer serves (%x, %x), want (nil, its hybrid key)", blinding, key)
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
	if _, _, err := buildStage("shuffler1", shuffler.Params{}, stageOpts{cfg: wal}); err == nil ||
		!strings.Contains(err.Error(), "-role shuffler1 -wal-dir needs -key-file") {
		t.Fatalf("buildStage(shuffler1 -wal-dir) = %v, want the refusal", err)
	}
	for _, o := range []stageOpts{{cfg: wal, keyFile: filepath.Join(dir, "s1.key")}, {}} {
		if _, _, err := buildStage("shuffler1", shuffler.Params{}, o); err != nil {
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
		st, _, err := buildStage("shuffler1", shuffler.Params{}, o)
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

// TestShufflerRolesNeedNext: -next has no default, so a shuffler role
// started without one exits at start-up with the engine's refusal instead of
// dialing whatever listens on some default port. The test re-runs its own
// binary as the daemon, main() reading the arguments in PROCHLOD_TEST_ARGS.
func TestShufflerRolesNeedNext(t *testing.T) {
	if args := os.Getenv("PROCHLOD_TEST_ARGS"); args != "" {
		os.Args = append([]string{"prochlod"}, strings.Fields(args)...)
		main()
		return
	}
	for _, role := range []string{"shuffler", "shuffler1", "shuffler2"} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestShufflerRolesNeedNext$")
		cmd.Env = append(os.Environ(), "PROCHLOD_TEST_ARGS=-role "+role+" -listen 127.0.0.1:0")
		out, err := cmd.CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 ||
			!strings.Contains(string(out), "downstream tier needs at least one address") {
			t.Errorf("-role %s without -next: %v\n%s\nwant exit status 1 and the engine's refusal", role, err, out)
		}
	}
}

// TestMetricsNameCryptoKernels scrapes a daemon's metrics listener: it
// serves prochlo_crypto_kernels_info at 1 with the kernels this process
// selected as its labels.
func TestMetricsNameCryptoKernels(t *testing.T) {
	ms := serveMetrics("127.0.0.1:0", newRegistry(), func() bool { return true })
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
