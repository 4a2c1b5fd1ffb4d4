package serve

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"spaceproc/internal/cluster"
	"spaceproc/internal/core"
	"spaceproc/internal/crreject"
	"spaceproc/internal/dataset"
	"spaceproc/internal/rice"
	"spaceproc/internal/serve/ring"
	"spaceproc/internal/telemetry"
)

// The fleet tests prove the router tier: deterministic consistent-hash
// placement, failover past dead members with breaker ejection and
// half-open readmission, queue-depth spillover, shed failover, and the
// acceptance criterion — bit-identical results through the router across
// a mid-run fleet rebalance.

// stampBackend answers every submission with the first frame, its pixel
// zero overwritten by the backend's stamp — so a test reading Pix[0]
// knows exactly which fleet member served the request.
type stampBackend struct{ id uint16 }

func (b *stampBackend) Submit(_ context.Context, s *dataset.Stack) <-chan *cluster.Result {
	out := make(chan *cluster.Result, 1)
	img := s.Frames[0].Clone()
	img.Pix[0] = b.id
	out <- &cluster.Result{Image: img, Compressed: rice.Encode(img.Pix)}
	return out
}

// startStampedFleet boots n daemons whose results identify them.
func startStampedFleet(t *testing.T, n int) (srvs []*Server, addrs []string, stamps map[string]uint16) {
	t.Helper()
	stamps = make(map[string]uint16, n)
	for i := 0; i < n; i++ {
		id := uint16(100 + i)
		srv, addr := startServer(t, &stampBackend{id: id})
		srvs = append(srvs, srv)
		addrs = append(addrs, addr)
		stamps[addr] = id
	}
	return srvs, addrs, stamps
}

// expectedRing mirrors the placement a fleet built over addrs computes
// with default vnodes and seed zero.
func expectedRing(addrs []string) *ring.Ring {
	rg := ring.New(0, 0)
	rg.Add(addrs...)
	return rg
}

// startRouter boots a router from cfg and registers cleanup.
func startRouter(t *testing.T, cfg Config) (*Router, string) {
	t.Helper()
	r, err := NewRouterWith(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := r.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r, addr
}

func TestFleetValidation(t *testing.T) {
	if _, err := NewFleet(DefaultConfig()); err == nil {
		t.Fatal("fleet without members should error")
	}
	cfg := DefaultConfig()
	cfg.ProbeInterval = -1
	cfg.Fleet = []Node{{Addr: "a:1"}, {Addr: "a:1"}}
	if _, err := NewFleet(cfg); err == nil {
		t.Fatal("duplicate member should error")
	}
	cfg.Fleet = []Node{{}}
	if _, err := NewFleet(cfg); err == nil {
		t.Fatal("empty member address should error")
	}
	if _, err := NewRouter(); err == nil {
		t.Fatal("router without a fleet should error")
	}
}

// TestRouterDeterministicRouting proves requests through the router land
// on the ring owner of their key, stably across repeats, and that the
// placement matches an independently computed ring.
func TestRouterDeterministicRouting(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, addrs, stamps := startStampedFleet(t, 3)
	cfg := DefaultRouterConfig()
	cfg.Fleet = []Node{{Addr: addrs[0]}, {Addr: addrs[1]}, {Addr: addrs[2]}}
	cfg.ProbeInterval = -1 // membership is static here; keep routing deterministic
	cfg.Telemetry = reg
	_, raddr := startRouter(t, cfg)
	c := dialClient(t, raddr, WithClientID("det"))

	rg := expectedRing(addrs)
	stack := testStack(2, 8, 8)
	keys := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	for round := 0; round < 2; round++ {
		for _, key := range keys {
			res, err := c.ProcessKeyed(context.Background(), key, stack)
			if err != nil {
				t.Fatalf("key %q round %d: %v", key, round, err)
			}
			owner, ok := rg.Lookup(key)
			if !ok {
				t.Fatal("expected ring is empty")
			}
			if got, want := res.Image.Pix[0], stamps[owner]; got != want {
				t.Fatalf("key %q served by stamp %d, ring owner %s has stamp %d", key, got, owner, want)
			}
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["router_routed_total"]; got != int64(2*len(keys)) {
		t.Fatalf("router_routed_total = %d, want %d", got, 2*len(keys))
	}
	if got := snap.Counters["router_rerouted_total"]; got != 0 {
		t.Fatalf("healthy fleet rerouted %d requests", got)
	}
	if snap.Counters["router_requests_total"] == 0 {
		t.Fatal("router admission core minted no router_requests_total")
	}
	if got := snap.Gauges["router_nodes"]; got != 3 {
		t.Fatalf("router_nodes = %v, want 3", got)
	}
}

// TestRouterFailoverEjectReadmit kills the owner of a key, proves its
// requests fail over along the ring, the breaker ejects the member, and
// a restart on the same address is readmitted by the half-open probe —
// after which the key routes home again.
func TestRouterFailoverEjectReadmit(t *testing.T) {
	reg := telemetry.NewRegistry()
	srvs, addrs, stamps := startStampedFleet(t, 3)
	cfg := DefaultRouterConfig()
	cfg.Fleet = []Node{{Addr: addrs[0]}, {Addr: addrs[1]}, {Addr: addrs[2]}}
	cfg.ProbeInterval = 20 * time.Millisecond
	cfg.ProbeFailures = 2
	cfg.ProbeBackoff = 25 * time.Millisecond
	cfg.ProbeBackoffMax = 150 * time.Millisecond
	cfg.Telemetry = reg
	router, raddr := startRouter(t, cfg)
	c := dialClient(t, raddr, WithClientID("fo"), WithRetryPolicy(8, 2*time.Millisecond, 50*time.Millisecond))

	const key = "failover-key"
	owner, _ := expectedRing(addrs).Lookup(key)
	victimIdx := -1
	for i, a := range addrs {
		if a == owner {
			victimIdx = i
		}
	}
	stack := testStack(2, 8, 8)

	res, err := c.ProcessKeyed(context.Background(), key, stack)
	if err != nil {
		t.Fatal(err)
	}
	if res.Image.Pix[0] != stamps[owner] {
		t.Fatalf("key routed to stamp %d, want owner %s stamp %d", res.Image.Pix[0], owner, stamps[owner])
	}

	srvs[victimIdx].Close()
	res, err = c.ProcessKeyed(context.Background(), key, stack)
	if err != nil {
		t.Fatalf("request with the owner down should fail over, got %v", err)
	}
	if res.Image.Pix[0] == stamps[owner] {
		t.Fatal("dead owner cannot have served the request")
	}

	deadline := time.After(10 * time.Second)
	for router.Fleet().Status()[owner].State == NodeHealthy {
		select {
		case <-deadline:
			t.Fatal("dead member never ejected")
		case <-time.After(2 * time.Millisecond):
		}
	}
	if got := reg.Snapshot().Counters["router_ejected_total"]; got == 0 {
		t.Fatal("ejection not counted")
	}

	// Restart the member on its old address; the half-open probe readmits.
	srv2, err := NewServer(&stampBackend{id: stamps[owner]})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv2.Listen(owner); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv2.Close)
	for router.Fleet().Status()[owner].State != NodeHealthy {
		select {
		case <-deadline:
			t.Fatal("restarted member never readmitted")
		case <-time.After(2 * time.Millisecond):
		}
	}
	if got := reg.Snapshot().Counters["router_readmitted_total"]; got == 0 {
		t.Fatal("readmission not counted")
	}

	res, err = c.ProcessKeyed(context.Background(), key, stack)
	if err != nil {
		t.Fatal(err)
	}
	if res.Image.Pix[0] != stamps[owner] {
		t.Fatalf("readmitted owner should serve its key again, got stamp %d", res.Image.Pix[0])
	}
	if got := reg.Snapshot().Gauges["router_nodes_healthy"]; got != 3 {
		t.Fatalf("router_nodes_healthy = %v after readmission, want 3", got)
	}
}

// TestFleetShedFailsOverWithoutTripping proves a member that sheds for
// load is routed around — and NOT treated as a transport fault: its
// breaker stays closed.
func TestFleetShedFailsOverWithoutTripping(t *testing.T) {
	reg := telemetry.NewRegistry()
	gb := &fakeBackend{gate: make(chan struct{}), started: make(chan struct{}, 4)}
	_, addrA := startServer(t, gb, WithMaxInflight(1), WithRetryAfterHint(time.Millisecond))
	_, addrB := startServer(t, &stampBackend{id: 200})

	cfg := DefaultRouterConfig()
	cfg.Fleet = []Node{{Addr: addrA}, {Addr: addrB}}
	cfg.ProbeInterval = -1
	cfg.Telemetry = reg
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)

	// A key owned by the soon-to-be-saturated member.
	rg := expectedRing([]string{addrA, addrB})
	// The owner depends on the ephemeral listen ports, so probe enough
	// candidate keys that one landing on A is a near-certainty.
	key := ""
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("k%d", i)
		if owner, _ := rg.Lookup(k); owner == addrA {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no probe key hashed onto the first member; add candidates")
	}

	// Saturate A with a direct client so the fleet's forward sheds.
	occ := dialClient(t, addrA, WithClientID("occ"))
	occDone := make(chan error, 1)
	go func() {
		_, err := occ.Process(context.Background(), testStack(2, 8, 8))
		occDone <- err
	}()
	<-gb.started

	ctx := WithRoute(context.Background(), Route{Client: "shedder", Key: key})
	res := <-f.Submit(ctx, testStack(2, 8, 8))
	if res.Err != nil {
		t.Fatalf("shed at the owner should fail over to the successor, got %v", res.Err)
	}
	if res.Image.Pix[0] != 200 {
		t.Fatalf("successor should have served, got stamp %d", res.Image.Pix[0])
	}
	if st := f.Status()[addrA].State; st != NodeHealthy {
		t.Fatalf("a shedding member is alive; breaker state %v", st)
	}
	if got := reg.Snapshot().Counters["router_rerouted_total"]; got == 0 {
		t.Fatal("failover past a shed not counted as rerouted")
	}

	close(gb.gate)
	if err := <-occDone; err != nil {
		t.Fatal(err)
	}
}

// TestFleetSpilloverOnDepth proves a hot owner (queue depth at the
// threshold) is demoted behind the cool successor for new requests.
func TestFleetSpilloverOnDepth(t *testing.T) {
	reg := telemetry.NewRegistry()
	gb := &fakeBackend{gate: make(chan struct{}), started: make(chan struct{}, 4)}
	_, addrHot := startServer(t, gb)
	_, addrCool := startServer(t, &stampBackend{id: 201})

	cfg := DefaultRouterConfig()
	cfg.Fleet = []Node{{Addr: addrHot}, {Addr: addrCool}}
	cfg.ProbeInterval = -1
	cfg.SpillDepth = 1
	cfg.Telemetry = reg
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)

	rg := expectedRing([]string{addrHot, addrCool})
	key := ""
	for _, k := range []string{"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7"} {
		if owner, _ := rg.Lookup(k); owner == addrHot {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no probe key hashed onto the gated member; add candidates")
	}

	// Park one forward on the owner so its live depth reaches the
	// threshold.
	held := make(chan *cluster.Result, 1)
	go func() {
		ctx := WithRoute(context.Background(), Route{Client: "holder", Key: key})
		held <- <-f.Submit(ctx, testStack(2, 8, 8))
	}()
	<-gb.started
	deadline := time.After(10 * time.Second)
	for f.Status()[addrHot].Depth < 1 {
		select {
		case <-deadline:
			t.Fatal("owner depth never reached the spill threshold")
		case <-time.After(time.Millisecond):
		}
	}

	ctx := WithRoute(context.Background(), Route{Client: "spiller", Key: key})
	res := <-f.Submit(ctx, testStack(2, 8, 8))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Image.Pix[0] != 201 {
		t.Fatalf("hot owner should spill to the successor, got stamp %d", res.Image.Pix[0])
	}
	if got := reg.Snapshot().Counters["router_spillover_total"]; got == 0 {
		t.Fatal("spillover not counted")
	}

	close(gb.gate)
	if res := <-held; res.Err != nil {
		t.Fatal(res.Err)
	}
}

// TestRouterPostAdmissionShedRetries proves the full saturation path: the
// router admits a request, finds every fleet member shedding, answers
// StatusShed on the already-admitted stream — and the ordinary client
// treats it like any shed, backing off and retrying to success.
func TestRouterPostAdmissionShedRetries(t *testing.T) {
	reg := telemetry.NewRegistry()
	gb := &fakeBackend{gate: make(chan struct{}), started: make(chan struct{}, 4)}
	_, daddr := startServer(t, gb, WithMaxInflight(1), WithRetryAfterHint(time.Millisecond))

	cfg := DefaultRouterConfig()
	cfg.Fleet = []Node{{Addr: daddr}}
	cfg.ProbeInterval = -1
	cfg.RetryAfter = time.Millisecond
	cfg.Telemetry = reg
	_, raddr := startRouter(t, cfg)

	// The occupier holds the daemon's single slot through the router.
	occ := dialClient(t, raddr, WithClientID("occ"))
	occDone := make(chan error, 1)
	go func() {
		_, err := occ.Process(context.Background(), testStack(2, 8, 8))
		occDone <- err
	}()
	<-gb.started

	creg := telemetry.NewRegistry()
	retrier := dialClient(t, raddr, WithClientID("retrier"),
		WithTelemetry(creg),
		WithRetryPolicy(200, time.Millisecond, 5*time.Millisecond))
	retried := make(chan error, 1)
	go func() {
		_, err := retrier.Process(context.Background(), testStack(2, 8, 8))
		retried <- err
	}()

	deadline := time.After(10 * time.Second)
	for creg.Snapshot().Counters["client_sheds_total"] == 0 {
		select {
		case <-deadline:
			t.Fatal("retrier never saw the post-admission shed")
		case <-time.After(time.Millisecond):
		}
	}
	close(gb.gate)
	if err := <-retried; err != nil {
		t.Fatalf("retrier should succeed once the fleet drains, got %v", err)
	}
	if err := <-occDone; err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["router_shed_total"]; got == 0 {
		t.Fatal("router never counted the post-admission shed")
	}
}

// TestFleetProbesHealthSidecar proves /healthz-based membership: a member
// with a telemetry sidecar stays healthy while the sidecar answers, and
// is ejected when the sidecar dies even though the serve port stays open.
func TestFleetProbesHealthSidecar(t *testing.T) {
	dreg := telemetry.NewRegistry()
	_, daddr := startServer(t, &stampBackend{id: 210}, WithTelemetry(dreg))
	sidecar, err := telemetry.NewServer(dreg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sidecar.Close() })

	cfg := DefaultRouterConfig()
	cfg.Fleet = []Node{{Addr: daddr, Health: sidecar.Addr()}}
	cfg.ProbeInterval = 20 * time.Millisecond
	cfg.ProbeFailures = 2
	cfg.ProbeBackoff = 25 * time.Millisecond
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)

	// Stays healthy across several probe rounds.
	time.Sleep(5 * cfg.ProbeInterval)
	if st := f.Status()[daddr].State; st != NodeHealthy {
		t.Fatalf("member with a live sidecar should stay healthy, got %v", st)
	}

	sidecar.Close()
	deadline := time.After(10 * time.Second)
	for f.Status()[daddr].State == NodeHealthy {
		select {
		case <-deadline:
			t.Fatal("member never ejected after its sidecar died")
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// TestClientBackoffResetsAfterSuccess is the regression test for the
// connection-scoped retry ladder: consecutive sheds escalate it, a served
// request must restore the base delay — historically only a redial did.
func TestClientBackoffResetsAfterSuccess(t *testing.T) {
	_, addr := startServer(t, &fakeBackend{})
	base := 10 * time.Millisecond
	c := dialClient(t, addr, WithRetryPolicy(6, base, 500*time.Millisecond))

	// Climb the ladder the way consecutive sheds would.
	if got := c.nextDelay(0); got != base {
		t.Fatalf("first delay %v, want base %v", got, base)
	}
	c.nextDelay(0)
	c.mu.Lock()
	climbed := c.backoff
	c.mu.Unlock()
	if climbed <= base {
		t.Fatalf("ladder did not escalate: %v", climbed)
	}

	if _, err := c.Process(context.Background(), testStack(2, 8, 8)); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	after := c.backoff
	c.mu.Unlock()
	if after != base {
		t.Fatalf("served request must reset the ladder to %v, got %v", base, after)
	}

	// And the ladder is capped.
	for i := 0; i < 20; i++ {
		c.nextDelay(0)
	}
	if got := c.nextDelay(0); got != 500*time.Millisecond {
		t.Fatalf("ladder cap %v, want 500ms", got)
	}
}

// TestClientFleetDialFailover proves a fleet-aware client connects to its
// ring owner and re-dials along the ring when that member dies mid-
// stream.
func TestClientFleetDialFailover(t *testing.T) {
	srvs, addrs, stamps := startStampedFleet(t, 2)
	const id = "fleet-client"
	seq := expectedRing(addrs).Sequence(id)
	owner, backup := seq[0], seq[1]

	c, err := DialFleet(addrs, WithClientID(id),
		WithClientDialBackoff(2, time.Millisecond),
		WithRetryPolicy(6, time.Millisecond, 20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if got := c.Addr(); got != owner {
		t.Fatalf("fleet client dialed %s, want ring owner %s", got, owner)
	}
	res, err := c.Process(context.Background(), testStack(2, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Image.Pix[0] != stamps[owner] {
		t.Fatalf("owner should serve its client, got stamp %d", res.Image.Pix[0])
	}

	for i, a := range addrs {
		if a == owner {
			srvs[i].Close()
		}
	}
	res, err = c.Process(context.Background(), testStack(2, 8, 8))
	if err != nil {
		t.Fatalf("client should fail over along the ring, got %v", err)
	}
	if res.Image.Pix[0] != stamps[backup] {
		t.Fatalf("backup should have served, got stamp %d", res.Image.Pix[0])
	}
	if got := c.Addr(); got != backup {
		t.Fatalf("client connected to %s, want backup %s", got, backup)
	}
}

// TestFleetRemoteErrorIsTerminal proves a member answering a server-side
// error is treated as alive (no ejection) and the error is not retried on
// other members — no node will disagree about a broken request.
func TestFleetRemoteErrorIsTerminal(t *testing.T) {
	failing := &fakeBackend{fail: errors.New("pipeline exploded")}
	_, addrA := startServer(t, failing)
	_, addrB := startServer(t, &stampBackend{id: 220})

	cfg := DefaultRouterConfig()
	cfg.Fleet = []Node{{Addr: addrA}, {Addr: addrB}}
	cfg.ProbeInterval = -1
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)

	rg := expectedRing([]string{addrA, addrB})
	key := ""
	for _, k := range []string{"r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7"} {
		if owner, _ := rg.Lookup(k); owner == addrA {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no probe key hashed onto the failing member; add candidates")
	}

	ctx := WithRoute(context.Background(), Route{Client: "rc", Key: key})
	res := <-f.Submit(ctx, testStack(2, 8, 8))
	if res.Err == nil {
		t.Fatal("server-reported failure must surface, not silently fail over")
	}
	if !errors.Is(res.Err, ErrRemote) {
		t.Fatalf("error should wrap ErrRemote, got %v", res.Err)
	}
	if st := f.Status()[addrA].State; st != NodeHealthy {
		t.Fatalf("a member reporting a request error is alive; breaker state %v", st)
	}
}

// TestRouterE2EBitIdenticalAcrossRebalance is the acceptance run: three
// real daemons behind a router, results bit-identical to the in-process
// pipeline before, during, and after a mid-run node kill and readmission.
func TestRouterE2EBitIdenticalAcrossRebalance(t *testing.T) {
	reg := telemetry.NewRegistry()
	pools := make([]*cluster.Pool, 3)
	var srvs []*Server
	var addrs []string
	for i := range pools {
		pools[i] = e2ePool(t, 2)
		srv, addr := startServer(t, pools[i])
		srvs = append(srvs, srv)
		addrs = append(addrs, addr)
	}
	cfg := DefaultRouterConfig()
	cfg.Fleet = []Node{{Addr: addrs[0]}, {Addr: addrs[1]}, {Addr: addrs[2]}}
	cfg.ProbeInterval = 20 * time.Millisecond
	cfg.ProbeFailures = 2
	cfg.ProbeBackoff = 25 * time.Millisecond
	cfg.ProbeBackoffMax = 150 * time.Millisecond
	cfg.Telemetry = reg
	router, raddr := startRouter(t, cfg)
	c := dialClient(t, raddr, WithClientID("e2e-fleet"),
		WithRetryPolicy(10, 2*time.Millisecond, 50*time.Millisecond))

	faulty := e2eBaseline(t, 7)
	ref := faulty.Clone()
	pre, err := core.NewAlgoNGST(core.DefaultNGSTConfig())
	if err != nil {
		t.Fatal(err)
	}
	core.ProcessStackWith(pre, ref)
	rej, err := crreject.New(crreject.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	wantImg, _ := rej.Integrate(ref)
	wantComp := rice.Encode(wantImg.Pix)

	keys := []string{"ds-0", "ds-1", "ds-2", "ds-3", "ds-4", "ds-5"}
	checkKeys := func(phase string) {
		t.Helper()
		for _, key := range keys {
			res, err := c.ProcessKeyed(context.Background(), key, faulty)
			if err != nil {
				t.Fatalf("%s: key %q: %v", phase, key, err)
			}
			for i := range wantImg.Pix {
				if res.Image.Pix[i] != wantImg.Pix[i] {
					t.Fatalf("%s: key %q differs from in-process run at pixel %d", phase, key, i)
				}
			}
			if len(res.Compressed) != len(wantComp) {
				t.Fatalf("%s: key %q compressed %d bytes, want %d", phase, key, len(res.Compressed), len(wantComp))
			}
			for i := range wantComp {
				if res.Compressed[i] != wantComp[i] {
					t.Fatalf("%s: key %q compressed payload differs at byte %d", phase, key, i)
				}
			}
		}
	}

	checkKeys("all-up")

	// Kill the owner of the first key mid-run; routing heals around it.
	victim, _ := expectedRing(addrs).Lookup(keys[0])
	victimIdx := -1
	for i, a := range addrs {
		if a == victim {
			victimIdx = i
		}
	}
	srvs[victimIdx].Close()
	checkKeys("one-down")

	deadline := time.After(20 * time.Second)
	for router.Fleet().Status()[victim].State == NodeHealthy {
		select {
		case <-deadline:
			t.Fatal("dead member never ejected")
		case <-time.After(2 * time.Millisecond):
		}
	}

	// Restart on the same address over the same pool; readmission follows.
	srv2, err := NewServer(pools[victimIdx])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv2.Listen(victim); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv2.Close)
	for router.Fleet().Status()[victim].State != NodeHealthy {
		select {
		case <-deadline:
			t.Fatal("restarted member never readmitted")
		case <-time.After(2 * time.Millisecond):
		}
	}

	checkKeys("readmitted")

	snap := reg.Snapshot()
	if snap.Counters["router_ejected_total"] == 0 {
		t.Fatal("rebalance never counted an ejection")
	}
	if snap.Counters["router_readmitted_total"] == 0 {
		t.Fatal("rebalance never counted a readmission")
	}
	if snap.Counters["router_routed_total"] < int64(3*len(keys)) {
		t.Fatalf("router_routed_total = %d, want at least %d", snap.Counters["router_routed_total"], 3*len(keys))
	}
}
