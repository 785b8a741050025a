GO ?= go

# Coverage floors: the pre-PR3 baselines for the packages the buffer
# overhaul touches, the PR5 scheduler floor for internal/workflow, the
# PR6 floor for the new internal/objstore backend, the PR7 floors for
# internal/gns and the new admission/stress packages, and the PR15 floor for
# the shared RPC shell. internal/vfs (the simulated disk) and internal/climate
# (the stencil) are floored because every simulated table runs their hot
# loops; internal/soap because the paper's transport has no other gate;
# internal/daemon at its first measured coverage, the shell every cmd/*d
# main runs in; internal/simclock and internal/simnet, the simulator kernel
# whose free lists and recycled chunks every simulated run relies on, at
# their first measured coverage. `make cover` fails when any drops below its
# floor.
COVER_FLOOR_CORE       ?= 80.3
COVER_FLOOR_GRIDBUFFER ?= 84.7
COVER_FLOOR_WORKFLOW   ?= 92.0
COVER_FLOOR_OBJSTORE   ?= 84.5
COVER_FLOOR_GNS        ?= 87.0
COVER_FLOOR_ADMIT      ?= 92.0
COVER_FLOOR_STRESS     ?= 85.0
COVER_FLOOR_RPC        ?= 90.0
COVER_FLOOR_VFS        ?= 76.5
COVER_FLOOR_CLIMATE    ?= 91.5
COVER_FLOOR_SOAP       ?= 95.0
COVER_FLOOR_DAEMON     ?= 85.0
COVER_FLOOR_SIMCLOCK   ?= 91.2
COVER_FLOOR_SIMNET     ?= 89.0

# BENCH_OUT is the benchmark record of the current PR: `make bench` writes
# it, `make bench-gate` compares it against BENCH_baseline.json and `make
# stress` merges the overload curves into it.
BENCH_OUT ?= BENCH_pr44.json

# Per-target fuzz budget for the `make fuzz` smoke pass. The checked-in
# seed corpora always replay in full under plain `go test`; this adds a
# short randomized probe on top.
FUZZTIME ?= 5s

.PHONY: check fmt vet one-substrate one-handle one-config one-daemon reachable test race chaos build cover fuzz bench bench-gate stress stress-smoke pairs

## check: gofmt + vet + one-substrate, one-handle, one-config, one-daemon and
## reachable guards + race coverage gate + chaos matrix + fuzz smoke + bench
## regression gate + overload stress smoke
check: fmt vet one-substrate one-handle one-config one-daemon reachable cover chaos fuzz bench-gate stress-smoke

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

## one-substrate: the connection shell lives in internal/rpc and nowhere
## else. Fails when a non-test .go file outside internal/rpc (and the two
## network implementations, and gridlab) accepts connections, decodes a shed
## reply or builds an accept backoff itself, or declares its own Dialer; when
## a non-test file of internal/gridftp or internal/objstore arms a deadline,
## runs a frame-receive loop or buffers a connection itself (the data channel
## is rpc.Stream); when a non-test file of internal/gridbuffer arms a
## deadline, buffers a connection, dials, runs a frame-receive loop or declares
## a frame writer (its endpoints are rpc streams and rpc.ServeConn); when a
## non-test file of internal/soap arms a deadline or names the retry or
## admission package, or internal/soap depends on internal/gridbuffer (SOAP is
## an envelope: the protocol's own client and server do the rest); when
## wire.FrameBuffered is called outside internal/rpc (the flush rule lives in
## rpc.ServeConn); when a private stream-codec state reappears anywhere; when a
## non-test file of internal/objstore dials a stream itself (every exchange
## goes through the client's rpc.Channels); or when a non-test comment still
## promises a connection "per-operation".
one-substrate:
	@out=$$(grep -rnE --include='*.go' --exclude='*_test.go' \
		'\.Accept\(\)|admit\.DecodeShed|admit\.NewAcceptBackoff|type Dialer interface' . \
		| grep -vE '^\./(internal/(rpc|simnet|realnet)|gridlab)/'); \
	if [ -n "$$out" ]; then \
		echo "connection shell outside internal/rpc:"; echo "$$out"; exit 1; \
	fi; \
	out=$$(grep -nE '\.SetDeadline\(|wire\.ReadFrameInto\(|bufio\.New(Reader|Writer)\(' \
		$$(ls internal/gridftp/*.go internal/objstore/*.go | grep -v '_test\.go$$')); \
	if [ -n "$$out" ]; then \
		echo "data channel outside internal/rpc:"; echo "$$out"; exit 1; \
	fi; \
	out=$$(grep -nE '\.Set(Read|Write)?Deadline\(|bufio\.New(Reader|Writer)(Size)?\(|\.Dial\(|wire\.ReadFrameInto\(|type [A-Za-z]*[Ff]rame[Ww]riter\b' \
		$$(ls internal/gridbuffer/*.go | grep -v '_test\.go$$')); \
	if [ -n "$$out" ]; then \
		echo "Grid Buffer connection shell outside internal/rpc:"; echo "$$out"; exit 1; \
	fi; \
	out=$$(grep -nE 'Set(Read|Write)?Deadline\(|retry\.|admit\.' \
		$$(ls internal/soap/*.go | grep -v '_test\.go$$'); \
		$(GO) list -deps ./internal/soap | grep '/internal/gridbuffer$$'); \
	if [ -n "$$out" ]; then \
		echo "SOAP doing more than the envelope:"; echo "$$out"; exit 1; \
	fi; \
	out=$$(grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build 'wire\.FrameBuffered(' . \
		| grep -v '^\./internal/rpc/'); \
	if [ -n "$$out" ]; then \
		echo "a flush rule outside rpc.ServeConn:"; echo "$$out"; exit 1; \
	fi; \
	out=$$(grep -rnE --include='*.go' 'type (streamCodec|connCodec|codecState) struct' .); \
	if [ -n "$$out" ]; then \
		echo "private stream-codec state (use rpc.StreamCodec):"; echo "$$out"; exit 1; \
	fi; \
	out=$$(grep -n 'rpc\.Open(' $$(ls internal/objstore/*.go | grep -v '_test\.go$$')); \
	if [ -n "$$out" ]; then \
		echo "objstore exchange outside the channel cache (use rpc.Channels.Do):"; echo "$$out"; exit 1; \
	fi; \
	out=$$(grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build 'per-operation' .); \
	if [ -n "$$out" ]; then \
		echo "a comment still promises a dial per operation:"; echo "$$out"; exit 1; \
	fi

## one-handle: internal/core has one File handle (handle.go) and every
## mechanism describes itself to it. Fails when a non-test file of the package
## other than handle.go counts handle bytes or assembles the cache/prefetch
## stack itself, or when a third type grows a Name() method, i.e. a third
## File implementation beside the handle and translatingFile.
one-handle:
	@out=$$(grep -nE 'stats\.(read|wrote)\(|newCachedReader\(|newPrefetcher\(' \
		$$(ls internal/core/*.go | grep -vE '_test\.go$$|/handle\.go$$') \
		| grep -vE ':func new(CachedReader|Prefetcher)\('); \
	if [ -n "$$out" ]; then \
		echo "handle plumbing outside internal/core/handle.go:"; echo "$$out"; exit 1; \
	fi; \
	n=$$(cat $$(ls internal/core/*.go | grep -v _test.go) | grep -c ') Name() string'); \
	if [ "$$n" -gt 2 ]; then \
		echo "internal/core declares $$n File implementations, want 2 (handle, translatingFile)"; exit 1; \
	fi

## one-config: every FM parameter is declared once, in core.Config, and the
## paper's 2004 values are spelled once, in core.Paper2004 (DESIGN.md §21; the
## companion reflection test is TestRunnerDeclaresNoFMField). Fails when a
## non-test .go file outside internal/core names TransportPerCall, or when a
## non-test .go file outside gridlab/ says "historical": the old behaviour is a
## named parameter value now, so a comment names the value.
one-config:
	@out=$$(grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build 'TransportPerCall' . \
		| grep -v '^\./internal/core/'); \
	if [ -n "$$out" ]; then \
		echo "a 2004 value spelled outside core.Paper2004 (say FM: core.Paper2004()):"; echo "$$out"; exit 1; \
	fi; \
	out=$$(grep -rni --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build 'historical' . \
		| grep -v '^\./gridlab/'); \
	if [ -n "$$out" ]; then \
		echo "a comment says what was, not what is:"; echo "$$out"; exit 1; \
	fi

## one-daemon: the five service mains run in one shell, internal/daemon
## (DESIGN.md §25). Fails when a non-test file under cmd/ opens a listener,
## builds an admission controller or parses a codec list itself, declares
## -listen, an -admit-* flag or -codecs itself, or passes a literal nil
## observer; or when a cmd/*d main does not register with the shell. The
## one allowed net.Listen is flowrun's serve helper, which starts the
## in-process services of its demo on loopback ports.
one-daemon:
	@out=$$(grep -rnE --include='*.go' --exclude='*_test.go' \
		'net\.Listen\(|admit\.New\(|wire\.ParseCodecList\(|"(listen|admit-[a-z-]*|codecs)"|SetObserver\(nil\)|Obs: *nil' cmd \
		| grep -vE '^cmd/flowrun/main\.go:[0-9]+:	l, err := net\.Listen\("tcp", "127\.0\.0\.1:0"\)$$'); \
	if [ -n "$$out" ]; then \
		echo "daemon set-up outside internal/daemon:"; echo "$$out"; exit 1; \
	fi; \
	for d in gnsd gridftpd gridbufferd objstored nwsd; do \
		grep -q 'daemon\.Register(' cmd/$$d/main.go || { echo "cmd/$$d does not run in internal/daemon"; exit 1; }; \
	done

## reachable: no exported function or method that only tests reach. Fails
## when a non-test .go file declares an exported function nothing outside its
## declaration names, or an exported method whose name no selector uses,
## unless testdata/reachable.txt lists it with a reason; and when a line of
## that list names something gone or used again (TestReachable,
## reachable_test.go).
reachable:
	$(GO) test -count=1 -run '^TestReachable$$' .

race:
	$(GO) test -race -shuffle=on ./internal/obs/... ./internal/core/... ./internal/gridftp/... ./internal/rpc/...

## cover: race-enabled tests with per-package coverage, gated on the
## pre-PR floors for internal/core, internal/gridbuffer and
## internal/workflow.
cover:
	$(GO) test -race -shuffle=on -coverprofile=cover.out \
		./internal/obs/... ./internal/core/... ./internal/gridbuffer/... \
		./internal/workflow/... ./internal/objstore/... ./internal/gns/... \
		./internal/admit/... ./internal/stress/... ./internal/rpc/... \
		./internal/vfs/... ./internal/climate/... ./internal/soap/... \
		./internal/daemon/... ./internal/simclock/... ./internal/simnet/... \
		| $(GO) run ./cmd/covergate \
		-floor griddles/internal/core=$(COVER_FLOOR_CORE) \
		-floor griddles/internal/gridbuffer=$(COVER_FLOOR_GRIDBUFFER) \
		-floor griddles/internal/workflow=$(COVER_FLOOR_WORKFLOW) \
		-floor griddles/internal/objstore=$(COVER_FLOOR_OBJSTORE) \
		-floor griddles/internal/gns=$(COVER_FLOOR_GNS) \
		-floor griddles/internal/admit=$(COVER_FLOOR_ADMIT) \
		-floor griddles/internal/stress=$(COVER_FLOOR_STRESS) \
		-floor griddles/internal/rpc=$(COVER_FLOOR_RPC) \
		-floor griddles/internal/vfs=$(COVER_FLOOR_VFS) \
		-floor griddles/internal/climate=$(COVER_FLOOR_CLIMATE) \
		-floor griddles/internal/soap=$(COVER_FLOOR_SOAP) \
		-floor griddles/internal/daemon=$(COVER_FLOOR_DAEMON) \
		-floor griddles/internal/simclock=$(COVER_FLOOR_SIMCLOCK) \
		-floor griddles/internal/simnet=$(COVER_FLOOR_SIMNET)

## chaos: the fault-injection matrix — {IO mechanism} x {fault scenario},
## the no-survivor budget tests, and 50 seeded random fault schedules.
chaos:
	$(GO) test -race -shuffle=on -timeout 5m ./internal/chaos/... ./internal/fault/...

## fuzz: short randomized probe of every fuzz target (the seed corpora in
## testdata/fuzz replay under plain `go test` regardless). `go test -fuzz`
## takes one target per invocation, hence the loop.
fuzz:
	@for tgt in \
		internal/wire:FuzzFrameRoundTrip \
		internal/wire:FuzzReadFrame \
		internal/wire:FuzzDecoderSticky \
		internal/gridbuffer:FuzzDecodeGetWin \
		internal/gridbuffer:FuzzDecodeOptions \
		internal/wire:FuzzCodecRoundTrip \
		internal/xdr:FuzzTranslateTwiceIdentity \
		internal/xdr:FuzzRecordRoundTrip \
		internal/xdr:FuzzColumnarXDR \
		internal/objstore:FuzzDecodeGetReq \
		internal/objstore:FuzzDecodeListResp \
		internal/objstore:FuzzDecodeStreamHeaders \
		internal/admit:FuzzDecodeShed \
		internal/rpc:FuzzRecvStream \
		internal/workflow:FuzzJournalDecode \
		internal/workflow:FuzzJournalRoundTrip \
		internal/gns:FuzzShardLeaseWire ; do \
		pkg=$${tgt%%:*}; fn=$${tgt##*:}; \
		echo "fuzz $$pkg $$fn ($(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$$fn$$" -fuzztime $(FUZZTIME) ./$$pkg/ || exit 1; \
	done

## bench: run the benchmark suite once and record it as $(BENCH_OUT).
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x -timeout 20m . | tee bench.out
	$(GO) run ./cmd/benchgate -parse bench.out -o $(BENCH_OUT)

## bench-gate: re-run the suite and fail on regression vs the checked-in
## baseline. Simulated-clock metrics and allocs/op gate at 10%; wall-clock
## metrics are compared and reported but don't gate (pure machine noise at
## -benchtime 1x) — pass -gate-wall to benchgate to enforce them too.
bench-gate: bench
	$(GO) run ./cmd/benchgate BENCH_baseline.json $(BENCH_OUT)

## stress: the full ~10k-workflow overload sweep (admission on vs off at
## x1 x2 x4 x8 offered load), merging the curves into $(BENCH_OUT) and
## failing if goodput collapses. Run after `make bench` so the parse step
## doesn't clobber the merged curves.
stress:
	$(GO) run ./cmd/stress -o $(BENCH_OUT)

## stress-smoke: the scaled-down CI shape of the same sweep — same ladder,
## shorter arrival window, gate only (no JSON record).
stress-smoke:
	$(GO) run ./cmd/stress -smoke

## pairs: N alternating parent/change runs of the BENCHMARK.json command per
## workload, with medians, quartiles, pairs won and a verdict per end-to-end
## metric (cmd/gridpairs). Minutes per workload; not part of `make check`.
##   make pairs PARENT=HEAD~1 WORKLOAD=file_read,open_storm N=10
PARENT   ?= HEAD
WORKLOAD ?= file_read
N        ?= 10
pairs:
	$(GO) run ./cmd/gridpairs -parent $(PARENT) -workload $(WORKLOAD) -pairs $(N)

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...
