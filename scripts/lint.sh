#!/usr/bin/env bash
# lint.sh — the grep lints. Each simplification of this codebase deleted a
# second way of doing something (a second wire, ingest path, sender, driver,
# ...); each rule below keeps one of them deleted, and a few keep a
# dependency out. A rule is one row of the table at the bottom:
#
#   rule NAME KIND FILES EXCEPT PATTERN REASON
#
#   KIND grep  PATTERN (an extended regex) must match no line of the Go
#              files whose repository path matches FILES and not EXCEPT;
#   KIND deps  PATTERN must match no package that the packages FILES
#              depend on (go list -deps), EXCEPT being dependencies to
#              ignore, and the packages themselves not counted;
#   KIND path  PATTERN must match no path in the repository.
#
# An empty EXCEPT excludes nothing. Most rules read the program: non-test Go
# outside benchmark/, a separate module with its own bound surface ($prog).
#
# Usage: scripts/lint.sh — prints every rule that trips, with its hits and
# its reason, and exits 1 if any did.
set -euo pipefail
cd "$(dirname "$0")/.."

tests='_test\.go$'
prog="$tests|^benchmark/"
failed=0
rules=0

# paths lists every file and directory in the tree, relative to its root.
paths() { find . -path ./.git -prune -o -print | sed -e 's|^\./||' -e '/^\.$/d'; }

rule() {
	local name=$1 kind=$2 files=$3 except=$4 pattern=$5 reason=$6 hits
	rules=$((rules + 1))
	case $kind in
	grep)
		hits=$(paths | grep -E '\.go$' | grep -E -- "$files" | { grep -vE -- "${except:-^$}" || true; } |
			xargs -r grep -nHE -- "$pattern" || true)
		;;
	deps)
		# shellcheck disable=SC2086 # FILES is a list of package patterns
		hits=$(go list -deps $files | grep -vxF -f <(go list $files) |
			{ grep -vxE -- "${except:-^$}" || true; } | { grep -E -- "$pattern" || true; })
		;;
	path)
		hits=$(paths | { grep -E -- "$pattern" || true; })
		;;
	*)
		echo "lint: rule $name: no kind $kind" >&2
		exit 2
		;;
	esac
	if [ -n "$hits" ]; then
		printf 'lint: %s: %s\n%s\n\n' "$name" "$reason" "$hits" >&2
		failed=1
	fi
}

rule 'One wire' grep . "$prog" \
	'"(net/rpc|encoding/gob)"' \
	'The frame protocol in internal/transport/wire.go is the only protocol: no program file may bring net/rpc or gob back.'
rule 'One batch path' grep . "$prog" \
	'SinkKind|SubmitAllBlinded|SubmitBlindedBatch|wireOps|stageEngine' \
	"core.Batch's kind is the only statement of what an item is: the engine's type parameter, the role arguments that restated it and the per-kind twins of the submit calls must not come back."
rule 'One ingest path' grep . "$prog" \
	'methodForward|methodIngest|methodFlush|appendItems|addForward|walRecItem|WALSync|wal-sync' \
	'Every batch (client submission, hop push, analyzer ingest) is one stamped Submit frame, one engine.ingest and one WAL record, and Drain is the only barrier: the retired frame methods, the per-shard item log and its fsync knob must not come back.'
rule 'One sender' grep . "$prog" \
	'pushSink|fanoutSink|faultPusher|dialPusher|RedialAttempts|SetRedial|dial-timeout' \
	"A hop's epoch push is a client's submit: one stamped send and one redial policy in internal/transport. The push sinks, the pusher wrapper and the per-service dial/redial knobs must not come back."
rule 'Backpressure holds' grep . "$prog" \
	'forwardRetries|fullRetries|DefaultSubmitRetries|MaxPending|max-pending' \
	"A Submit without room is held until a cut frees some, and only a hold past its bound is refused, as a final answer: no sender retries epoch-full, and the occupancy limit is derived from the flush threshold, not set. The push and submit retry loops, their budgets and the limit's knob must not come back."
rule 'One service' grep . "$prog" \
	'AnalyzerService|AnalyzerStats|AnalyzerClient|DialAnalyzer|runAnalyzer|buildAnalyzer|prochlo_analyzer_' \
	"Every party, the analyzer too, is a stage on the one epoch engine, served by StageService and reached through Client: the analyzer's own service, stats reply, client handle, daemon start-up and prochlo_analyzer_* series must not come back."
rule 'One stage contract' grep . "$prog" \
	'admitAsIs|SetAttestation|\bDecodeBatch\(|func \([^)]*\) Process\(' \
	'A stage states its batch kind and anonymity floor (Kinds, Floor), and only the drivers check them: the epoch engine, and shuffler.RunEpoch for a stage run alone. Per-stage kind checks, the Process twins of ProcessEpoch, a quote installed on the service from outside and the copying batch decoder must not come back.'
rule 'One range rule' grep . "$prog" \
	'blindChunk|openChunk(-1|\]| =)|\+[A-Za-z]*[Cc]hunk-1\)/' \
	'Every crypto fan-out cuts its batch with parallel.Ranges: one range per worker, none longer than parallel.RangeMax, so a small batch still reaches every worker. A fixed-chunk loop (a chunk constant dividing the batch, the shape of the retired blindChunk and openChunk constants) must not come back; the openChunk method, which opens one range, keeps its name.'
rule 'One tier list, one status call' grep . "$prog" \
	'HealthzReply|methodHealthz|anlzs|Analyzers[[:space:]]+\[\]string|\.Analyzers\b' \
	"A deployment is its list of tiers, the analyzer's last: the client and the loopback fleet keep no analyzer list beside their tiers. Stats is the one status call (its Healthy bit is the probe): the Healthz reply and method id 5 must not come back."
rule 'One driver' grep '^[^/]*\.go$' "$tests" \
	'\.(Admit|ProcessEpoch)\(|RunEpoch\(|analyzer\.Analyzer\b|\badmit\(' \
	"prochlo.Pipeline runs its stages on the daemons' epoch engine (transport.Link), so the engine is the one place a batch is admitted and an epoch processed: the root package admits nothing, runs no stage and holds no analyzer of its own."
rule 'One client' grep '^[^/]*\.go$' "$tests" \
	'\.Public\(\)|Blinding\.H\b' \
	"prochlo.Pipeline and RemotePipeline are one client: both learn their encoder's keys from what their tiers serve over Keys and Attestation, hop 1's proof of alpha and an SGX quote checked. No root-package program file derives a client key from a stage's secret."
rule 'No test adversary in a daemon: no program links faultnet' deps './cmd/... ./examples/...' '' \
	'^prochlo/internal/faultnet$' \
	'Fault injection is a seeded proxy on the wire, internal/faultnet, which only tests import: no command or example links it.'
rule 'No test adversary in a daemon: no program file imports faultnet' grep . "$tests" \
	'"prochlo/internal/faultnet"' \
	'Fault injection is a seeded proxy on the wire, internal/faultnet, which only tests import.'
rule 'No test adversary in a daemon: faultnet imports only the standard library' deps ./internal/faultnet '' \
	'^prochlo/' \
	'internal/faultnet imports only the standard library, so no party can be linked into the proxy.'
rule 'No test adversary in a daemon: no fault plan in the transport' grep '^internal/transport/' "$tests" \
	'FaultPlan|Fault:|\.inject\(' \
	'The sender, the engine and EpochConfig carry no fault plan: faults are injected on the wire only.'
rule 'No simulated crash in a daemon' grep '^internal/transport/' "$tests" \
	'\bAbort\b|aborter|isKilled|closeFiles|\bServeConn\b' \
	'Crash tests end a stage with a real SIGKILL of a child process (the test binary run again through TestMain), so the daemon keeps no crash path: non-test internal/transport code names no Abort, aborter, isKilled or closeFiles, and serves connections only through Serve (no exported ServeConn).'
rule 'One entry tier' grep . "$prog" \
	'WithBalancer|WithSubmitRetry|BalancerConfig|ingestShard|shardRR' \
	"A pipeline dials each party once: the balancer picks among, probes over and fails over between the pipeline's own entry connections, under one fixed policy. The balancer's config, its options and the ingest shards must not come back."
rule 'One entry tier: the balancer dials nothing' grep '^internal/transport/balancer\.go$' '' \
	'dialPeer|Dial\(' \
	"The balancer owns no connection: it uses the pipeline's entry connections, so no dial may appear in balancer.go."
rule 'No unsafe' grep . "$tests" \
	'^\s*(import\s+)?(_\s+|[A-Za-z_][A-Za-z0-9_]*\s+)?"unsafe"' \
	'The decoders alias their receive buffers as byte slices only; no program file converts a pointer, so none may import unsafe.'
rule 'One item encoding' grep . "$prog" \
	'SourceIP|ArrivalTime|AppendItem|DecodeItem' \
	'The wire codec is an item'"'"'s only encoding, and the WAL logs a batch as the Submit body it arrived in: no item carries a source address or an arrival time, and the per-item log codec must not come back.'
rule 'Items carry no arrival order' grep . "$prog" \
	'\bSeqNo\b|StripMetadata|\.Stamp\(|\.Seq\(' \
	'The shuffler strips implicit metadata (§3.3), and arrival order is the last of it: the epoch engine numbers its chunks, not the items, so no item field holds a sequence number and nothing strips one.'
rule 'One log' grep . "$prog" \
	'epochs-|walRecMark|migrateWAL|epochBuf|walMetaName|walRecMeta|walRecDropCut|wal\.meta' \
	'The WAL is one segment family whose segments open with a checkpoint naming the stream and kind, and dedup keeps one position per stream: the separate epoch log, its mark replicas and queue, the recovery rewrite, the wal.meta file and the drop-cut record must not come back.'
rule 'One deployed group' grep . "$tests" \
	'p256Group|p256Point|group\.(P256|Ristretto255|Infer)' \
	'ristretto255 is the one group, a concrete type in internal/crypto/group: no program file may bring back a second backend or a way to pick one.'
rule 'One deployed group: no elliptic curve in the crypto' grep '^internal/crypto/' '' \
	'crypto/elliptic' \
	'Nothing under internal/crypto, tests included, may import crypto/elliptic (internal/sgx keeps its ECDSA P-256 quote key, which is not a group of the data path).'
rule 'One way to build a party' grep . "$tests|^(internal/shuffler|benchmark)/" \
	'&shuffler\.Shuffler[12]?\{|shuffler\.NewShuffler1Group\(|transport\.Keys\{' \
	"shuffler.NewStage turns a role name, its tier's secrets and the seed into the stage, and a service serves the keys its stage holds: no program file outside internal/shuffler builds a role's stage by hand or states the keys it serves."
rule 'One instrument' path . '' \
	'^(BENCH_[^/]*\.json|scripts/(capture_bench|bench_delta)\.sh|cmd/(stashbench|shufflecmp|vocab|perms|suggest|flix))$' \
	'The paper'"'"'s tables come from one command, cmd/prochlo-paper, and speed is measured by benchmark/ alone: the go-bench captures, their scripts and the six per-table binaries must not come back.'

if [ "$failed" -ne 0 ]; then
	exit 1
fi
echo "lint: $rules rules, none tripped"
