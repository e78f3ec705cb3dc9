// Cluster partitions one simulation across several Engines and replays
// their interactions in a canonical order, so a machine split over
// multiple cores produces bit-identical results to a sequential run —
// by construction, not by luck.
//
// # Model
//
// The machine's sequential units are domains (see Domain): each node is
// one domain, and the shared mesh fabric is the hub domain. A Cluster
// owns P partition engines (each holding the events of a disjoint set of
// node domains) plus one hub engine (holding the fabric's events). Node
// events may touch only their own node's state; the only cross-domain
// traffic is
//
//   - posts (node → hub): packet injections, FIFO credits, crash
//     notifications — buffered per partition during a node phase and
//     replayed onto the hub engine sorted by (time, domain, creation
//     order), which is exactly the order a single engine with the
//     (at, dom, seq) key would have fired them in;
//   - messages (hub → node): packet deliveries and injector-free
//     callbacks — recorded in hub execution order and run sequentially
//     by the coordinator, which is exactly where a single engine would
//     have run them inline.
//
// Both directions carry typed records (Post.Kind / Msg.Kind with
// preextracted arguments) dispatched through the Dispatcher installed by
// the machine glue, so the steady-state rendezvous allocates nothing:
// no closure per post, no closure per delivery, and the hub-side replay
// events come from a free list.
//
// # Conservative lookahead
//
// The rendezvous is a bounded-horizon barrier (conservative PDES in the
// Chandy–Misra–Bryant tradition). Each round computes
//
//	T = min next event over all engines
//	W_j = min(hub's next event,
//	          relFloor + lookahead,
//	          min_i injFloor_i + pairLook[i][j],
//	          pacer deadline)
//
// per partition j, where injFloor_i lower-bounds the earliest future
// packet injection partition i can make (the NICs' pipeline floors),
// relFloor lower-bounds the earliest FIFO release anywhere, and
// pairLook[i][j] is the minimum inject→consequence latency from any
// node of partition i to any node of partition j through the mesh (hop
// distance between the partitions' node sets; see SetPairLookahead).
// The floors are cached per partition and recomputed by the worker that
// just ran the partition's phase — or lazily when a delivered message
// dirties a partition — instead of rescanning every NIC every round.
// If min_j W_j > T the round is a window: every partition runs its node
// phase to its own W_j in parallel, then the hub drains to min_j W_j;
// no message can land inside the window, which the coordinator asserts.
// Otherwise the round is a tick: partitions fire only events at exactly
// T (run bound pinned to T, the same yield a sequential engine with a
// pending event at T takes), the hub drains T, and messages are run —
// repeating until the instant is exhausted.
//
// Without per-partition probes (SetPartProbes and SetPairLookahead) the
// edge collapses to one uniform edge, the hub's next event, which is
// the path for bare sim-level clusters.
//
// Parallelism is a persistent worker gang (see gang.go): one goroutine
// per partition beyond the first, alive for the Cluster's lifetime,
// driven by an atomic epoch barrier that spins briefly and then parks.
// A round costs two atomic phases instead of P goroutine spawns.
// Partition state needs no locks because partitions are disjoint and
// the hub/message phases run only while node phases are quiescent (the
// barrier's atomics provide the happens-before edges).
//
// # Exact single-step mode
//
// Step, RunWhile, RunUntil and RunFor do not use rounds: they fire one
// event at a time in the canonical global order (smallest (at, dom)
// head across engines; the hub wins ties because a pending post was
// created by an already-fired event), with the stepped engine's run
// bound set so run-ahead components (the batched CPU) see exactly the
// horizon a single shared heap would have shown them. Post replays and
// the messages they produce drain inside the Step that fired the
// originating event — sequentially those calls ran inside the event
// itself — so the number and position of Step boundaries match the
// sequential engine exactly, and harness code that interleaves Go-side
// checks between events (futures, stall loops) behaves identically to
// the sequential engine, event for event. Setting Sequential forces
// drains onto this path too, which is
// the A/B reference the differential tests compare the parallel rounds
// against.
package sim

import (
	"fmt"
	"time"
)

// Post is one node→hub action, replayed on the hub engine at time At in
// domain Dom (the posting node's domain, so replay order matches the
// sequential interleaving). Kind selects the fabric call and A/B/U/Ptr
// carry its preextracted arguments, decoded by the Dispatcher.
type Post struct {
	At   Time
	Dom  Domain
	Kind uint8
	A, B int64
	U    uint64
	Ptr  any
}

// Msg is one hub→node action (a packet delivery or injector-free
// callback), decoded by the Dispatcher.
type Msg struct {
	Kind uint8
	A, B int64
	Ptr  any
}

// Dispatcher decodes typed posts and messages into machine calls. The
// core glue installs one; a cluster that carries posts or messages must
// have one.
type Dispatcher interface {
	ApplyPost(Post)
	ApplyMsg(Msg)
}

// deferred is one hub→node message, run after the hub phase that
// produced it under the domain the hub event chain carried.
type deferred struct {
	part int
	at   Time
	dom  Domain
	m    Msg
}

// postEvent is a pooled hub-engine event that applies one replayed post.
// The free list is coordinator-only state (replays are scheduled and
// fired between node phases), so it needs no lock.
type postEvent struct {
	c    *Cluster
	p    Post
	next *postEvent
}

func (ev *postEvent) Fire() {
	c, p := ev.c, ev.p
	ev.p = Post{}
	ev.next = c.freeEv
	c.freeEv = ev
	c.disp.ApplyPost(p)
}

// Cluster runs one machine partitioned across several engines.
type Cluster struct {
	parts []*Engine
	hub   *Engine
	look  Time // minimum release→node-consequence latency (mesh flit time)
	disp  Dispatcher

	// Adaptive per-partition lookahead (SetPartProbes/SetPairLookahead).
	partProbe func(part int) (inj, rel Time)
	pairLook  [][]Time // [from][to] inject→consequence floor; nil → uniform
	injProbe  []Time   // cached per-partition injection floors
	relProbe  []Time   // cached per-partition release floors
	dirty     []bool   // partition probe caches needing recomputation
	edges     []Time   // per-partition window edges for the current round

	posts  [][]Post // per-partition post buffers (only owner appends)
	heads  []int    // k-way merge cursors into posts
	msgs   []deferred
	freeEv *postEvent

	// Sequential forces DrainBudget onto the exact single-step path
	// (differential testing); Step/RunWhile/RunUntil always use it.
	Sequential bool

	// Parallel disables the worker gang when false (set for
	// single-partition clusters); rounds still run, inline.
	parallel bool

	// gang holds the persistent node-phase workers, started lazily on
	// the first parallel round and kept across Reset; Close stops it.
	gang     *gang
	gangIdle time.Duration // park timeout before a worker self-reaps

	// pacer, when non-nil, observes the canonical global event order at
	// its deadlines (see pacer.go). The coordinator paces before rounds
	// and exact steps and caps windowed rounds at the next deadline, so
	// the cut matches a sequential engine's exactly.
	pacer Pacer
}

// NewCluster builds a cluster over the given partition engines and the
// hub engine. look is the conservative lookahead: the minimum simulated
// delay between a node→hub post and any node-visible consequence.
func NewCluster(parts []*Engine, hub *Engine, look Time) *Cluster {
	if look <= 0 {
		panic("sim: cluster lookahead must be positive")
	}
	c := &Cluster{
		parts:    parts,
		hub:      hub,
		look:     look,
		posts:    make([][]Post, len(parts)),
		heads:    make([]int, len(parts)),
		injProbe: make([]Time, len(parts)),
		relProbe: make([]Time, len(parts)),
		dirty:    make([]bool, len(parts)),
		edges:    make([]Time, len(parts)),
		parallel: len(parts) > 1,
		gangIdle: 250 * time.Millisecond,
	}
	c.markDirty()
	return c
}

// SetPartProbes installs the per-partition probe: lower bounds on the
// earliest future packet injection (inj) and FIFO release (rel) the
// partition's nodes can post. Results are cached; the cache for a
// partition is refreshed by the worker that finishes its node phase and
// invalidated when a message is delivered to it.
func (c *Cluster) SetPartProbes(f func(part int) (inj, rel Time)) {
	c.partProbe = f
	c.markDirty()
}

// SetPairLookahead installs the partition-pair lookahead table:
// table[i][j] lower-bounds the simulated delay between a packet
// injection by partition i and any consequence visible to partition j
// (derived from the mesh hop distance between the partitions' node
// sets). The table must be square with one row per partition.
func (c *Cluster) SetPairLookahead(table [][]Time) {
	if len(table) != len(c.parts) {
		panic("sim: pair lookahead table must have one row per partition")
	}
	for _, row := range table {
		if len(row) != len(c.parts) {
			panic("sim: pair lookahead table must be square")
		}
	}
	c.pairLook = table
}

// SetDispatch installs the typed post/message decoder.
func (c *Cluster) SetDispatch(d Dispatcher) { c.disp = d }

// Parts returns the partition engines (for per-component wiring).
func (c *Cluster) Parts() []*Engine { return c.parts }

// Hub returns the hub engine.
func (c *Cluster) Hub() *Engine { return c.hub }

// PostTo buffers a node→hub action from partition part. Only events
// running on partition part's engine may call it (each partition appends
// to its own buffer, so node phases need no locks).
func (c *Cluster) PostTo(part int, p Post) {
	c.posts[part] = append(c.posts[part], p)
}

// DeferMsg records a hub→node message for partition part at the hub's
// current time and domain; the coordinator runs it after the hub phase.
// Only hub events may call it.
func (c *Cluster) DeferMsg(part int, m Msg) {
	c.msgs = append(c.msgs, deferred{part: part, at: c.hub.Now(), dom: c.hub.Domain(), m: m})
}

// Close stops the persistent worker gang, if one was started. The
// cluster remains usable — the next parallel round starts a fresh gang —
// so Close is safe to call at any quiescent point. Idle workers also
// self-reap after gangIdle, so an abandoned Cluster does not leak
// goroutines forever even without Close.
func (c *Cluster) Close() {
	if c.gang != nil {
		c.gang.stop()
		c.gang = nil
	}
}

// Now returns the cluster's observable time: the furthest any engine
// has advanced.
func (c *Cluster) Now() Time {
	t := c.hub.Now()
	for _, e := range c.parts {
		if n := e.Now(); n > t {
			t = n
		}
	}
	return t
}

// Fired returns the total events executed across all engines.
func (c *Cluster) Fired() uint64 {
	n := c.hub.Fired()
	for _, e := range c.parts {
		n += e.Fired()
	}
	return n
}

// Pending returns the total events waiting across all engines.
func (c *Cluster) Pending() int {
	n := c.hub.Pending() + len(c.msgs)
	for i, e := range c.parts {
		n += e.Pending() + len(c.posts[i])
	}
	return n
}

// MaxPending returns the deepest any single engine's queue has been.
func (c *Cluster) MaxPending() int {
	n := c.hub.MaxPending()
	for _, e := range c.parts {
		if m := e.MaxPending(); m > n {
			n = m
		}
	}
	return n
}

// Failed returns the canonically-first failure across all engines: the
// one with the smallest (time, domain) stamp, which is the failure a
// sequential run would have surfaced. Nil when no engine failed.
func (c *Cluster) Failed() error {
	var err error
	var at Time
	var dom Domain
	consider := func(e *Engine) {
		if e.failure == nil {
			return
		}
		fa, fd := e.FailedAt()
		if err == nil || fa < at || (fa == at && fd < dom) {
			err, at, dom = e.failure, fa, fd
		}
	}
	consider(c.hub)
	for _, e := range c.parts {
		consider(e)
	}
	return err
}

// Fail records a failure on the hub engine (harness-level aborts).
func (c *Cluster) Fail(err error) { c.hub.Fail(err) }

// Reset returns every engine to time zero and discards buffered posts
// and messages. The worker gang, if started, survives — it holds wiring,
// not simulated state — so a reused Machine pays the spawn cost once.
func (c *Cluster) Reset() {
	c.hub.Reset()
	for _, e := range c.parts {
		e.Reset()
	}
	for i := range c.posts {
		clear(c.posts[i])
		c.posts[i] = c.posts[i][:0]
		c.heads[i] = 0
	}
	clear(c.msgs)
	c.msgs = c.msgs[:0]
	c.markDirty()
}

// markDirty invalidates every partition's cached probe floors.
func (c *Cluster) markDirty() {
	for i := range c.dirty {
		c.dirty[i] = true
	}
}

// nextTime returns the earliest pending event time across all engines.
func (c *Cluster) nextTime() Time {
	t := c.hub.NextEventAt()
	for _, e := range c.parts {
		if n := e.NextEventAt(); n < t {
			t = n
		}
	}
	return t
}

// schedulePost schedules one replayed post on the hub heap through the
// pooled event free list — no allocation in steady state.
func (c *Cluster) schedulePost(p Post) {
	ev := c.freeEv
	if ev == nil {
		ev = &postEvent{c: c}
	} else {
		c.freeEv = ev.next
		ev.next = nil
	}
	ev.p = p
	c.hub.ScheduleDom(p.Dom, p.At, ev)
}

// flushPosts replays buffered posts onto the hub engine in canonical
// order: (time, domain) sorted, creation order within a domain. Each
// partition's buffer is already in that order on its own — an engine
// fires events in nondecreasing (at, dom) order and one domain never
// spans partitions — so the replay is an allocation-free k-way merge
// over the per-partition buffers (lowest partition index wins exact
// (time, domain) ties, matching what a stable sort of the concatenated
// buffers produced). The hub heap's (at, dom, seq) key then interleaves
// the replays with fabric events exactly as a single shared heap would.
func (c *Cluster) flushPosts() {
	total := 0
	for i := range c.posts {
		total += len(c.posts[i])
	}
	for n := 0; n < total; n++ {
		best := -1
		var ba Time
		var bd Domain
		for i := range c.posts {
			h := c.heads[i]
			if h >= len(c.posts[i]) {
				continue
			}
			p := &c.posts[i][h]
			if best < 0 || p.At < ba || (p.At == ba && p.Dom < bd) {
				best, ba, bd = i, p.At, p.Dom
			}
		}
		c.schedulePost(c.posts[best][c.heads[best]])
		c.heads[best]++
	}
	for i := range c.posts {
		clear(c.posts[i])
		c.posts[i] = c.posts[i][:0]
		c.heads[i] = 0
	}
}

// flushMsgs runs buffered hub→node messages in hub execution order,
// advancing the target partition's clock to the message time first (safe:
// nothing earlier can be pending, the message time is the current global
// instant) and entering the domain the hub chain carried. Each delivery
// dirties its partition's probe cache — a delivered packet can start the
// deposit pipeline, lowering the release floor.
func (c *Cluster) flushMsgs() {
	for i := 0; i < len(c.msgs); i++ {
		d := c.msgs[i]
		e := c.parts[d.part]
		e.AdvanceTo(d.at)
		prev := e.EnterDomain(d.dom)
		c.disp.ApplyMsg(d.m)
		e.EnterDomain(prev)
		c.dirty[d.part] = true
	}
	clear(c.msgs)
	c.msgs = c.msgs[:0]
}

// runPhase executes one partition's node phase — runWindow to its own
// edge or runAt the tick instant — then refreshes the partition's probe
// cache in place. It runs on the owning gang worker (or the coordinator
// for partition 0 and inline phases), which parallelizes the NIC floor
// scan that a single coordinator used to pay for every round.
func (c *Cluster) runPhase(i int, op uint32, tickT Time) {
	e := c.parts[i]
	if op == opWindow {
		e.runWindow(c.edges[i])
	} else {
		e.runAt(tickT)
	}
	if c.partProbe != nil {
		c.injProbe[i], c.relProbe[i] = c.partProbe(i)
		c.dirty[i] = false
	}
}

// nodePhase runs one phase over every partition engine — through the
// persistent gang when the cluster is parallel (the coordinator takes
// partition 0 itself), inline otherwise.
func (c *Cluster) nodePhase(op uint32, tickT Time) {
	if !c.parallel {
		for i := range c.parts {
			c.runPhase(i, op, tickT)
		}
		return
	}
	if c.gang == nil {
		c.gang = newGang(c)
	}
	e := c.gang.dispatch(op, tickT)
	c.runPhase(0, op, tickT)
	c.gang.waitDone(e)
}

// satAdd is a Forever-saturating Time addition.
func satAdd(a, b Time) Time {
	if a > Forever-b {
		return Forever
	}
	return a + b
}

// windowEdges computes each partition's horizon W_j for a round starting
// at global time T and returns the minimum; events strictly before W_j
// can fire on partition j without rendezvous. min > T selects a windowed
// round; min == T a tick round. Probe floors are clamped at T (a cached
// floor may lag; posts can never be scheduled in the past).
func (c *Cluster) windowEdges(T Time) Time {
	hubNext := c.hub.NextEventAt()
	deadline := Forever
	if c.pacer != nil {
		// Never fire an event at/after a pending observation deadline:
		// end the window there so the pacer sees the exact cut.
		deadline = c.pacer.NextDeadline()
	}
	if c.partProbe == nil || c.pairLook == nil {
		// Uniform mode (bare clusters, no probes installed): one shared
		// edge at the hub's next event.
		w := min(hubNext, deadline)
		for i := range c.edges {
			c.edges[i] = w
		}
		return w
	}
	for i := range c.parts {
		if c.dirty[i] {
			c.injProbe[i], c.relProbe[i] = c.partProbe(i)
			c.dirty[i] = false
		}
	}
	// FIFO releases unblock parked worms anywhere in the mesh, so their
	// floor stays global: consequence >= earliest release + one flit.
	rel := Forever
	for i := range c.parts {
		r := c.relProbe[i]
		if r < T {
			r = T
		}
		if r < rel {
			rel = r
		}
	}
	relEdge := satAdd(rel, c.look)
	wmin := Forever
	for j := range c.parts {
		w := hubNext
		if relEdge < w {
			w = relEdge
		}
		for i := range c.parts {
			p := c.injProbe[i]
			if p < T {
				p = T
			}
			if edge := satAdd(p, c.pairLook[i][j]); edge < w {
				w = edge
			}
		}
		if deadline < w {
			w = deadline
		}
		c.edges[j] = w
		if w < wmin {
			wmin = w
		}
	}
	return wmin
}

// round executes one rendezvous round; it reports false when no events
// remain anywhere.
func (c *Cluster) round() bool {
	T := c.nextTime()
	if T == Forever {
		return false
	}
	if c.pacer != nil {
		pace(c.pacer, T)
	}
	if w := c.windowEdges(T); w > T {
		c.windowRound(w)
	} else {
		c.tickRound(T)
	}
	return true
}

// windowRound fires every node event strictly before its partition's
// edge in parallel, then drains the hub to the minimum edge. The
// lookahead bounds guarantee the hub cannot produce node-side work
// inside any partition's window.
func (c *Cluster) windowRound(wmin Time) {
	c.nodePhase(opWindow, 0)
	c.flushPosts()
	for {
		at, _, ok := c.hub.headKey()
		if !ok || at >= wmin || c.hub.failure != nil {
			break
		}
		c.hub.Step()
	}
	if len(c.msgs) != 0 {
		panic(fmt.Sprintf("sim: cluster lookahead violated: %d message(s) produced inside window ending %v", len(c.msgs), wmin))
	}
}

// tickRound exhausts the single instant T: node phases at exactly T,
// post replay, hub drain to T, then messages — repeated until nothing at
// T remains. Messages at T may wake node events at T (interrupt
// delivery, thaw), hence the loop.
func (c *Cluster) tickRound(T Time) {
	for {
		c.nodePhase(opTick, T)
		c.flushPosts()
		for {
			at, _, ok := c.hub.headKey()
			if !ok || at > T || c.hub.failure != nil {
				break
			}
			c.hub.Step()
		}
		if len(c.msgs) > 0 {
			c.flushMsgs()
			continue
		}
		again := false
		for _, e := range c.parts {
			if at, _, ok := e.headKey(); ok && at <= T && e.failure == nil {
				again = true
				break
			}
		}
		if !again {
			return
		}
	}
}

// pick returns the engine holding the canonically-earliest pending event
// (nil when all queues are empty). The hub wins (at, dom) ties: a post
// pending there was created by a node event that already fired, so it
// precedes any still-pending node event with the same key.
func (c *Cluster) pick() *Engine {
	best := c.hub
	at, dom, ok := c.hub.headKey()
	if !ok {
		best = nil
		at = Forever
	}
	for _, e := range c.parts {
		ea, ed, eok := e.headKey()
		if !eok {
			continue
		}
		if best == nil || ea < at || (ea == at && ed < dom) {
			best, at, dom = e, ea, ed
		}
	}
	return best
}

// postCount reports how many node→hub posts are buffered.
func (c *Cluster) postCount() int {
	n := 0
	for i := range c.posts {
		n += len(c.posts[i])
	}
	return n
}

// stepOn fires one event on e with e's run bound set to limit, so
// run-ahead components yield exactly where a single shared heap would
// have made them yield. Post replays and the hub→node messages they
// produce drain within the same step: a sequential machine ran those
// calls synchronously inside the event that just fired, so they must
// not surface as extra Step() boundaries — harness polling loops that
// act once per Step would otherwise interleave differently (and, e.g.,
// issue extra bus transactions) than against a single engine.
func (c *Cluster) stepOn(e *Engine, limit Time) {
	fire := func(eng *Engine) {
		prevBound, prevBounded := eng.bound, eng.bounded
		eng.bound, eng.bounded = limit, true
		eng.Step()
		eng.bound, eng.bounded = prevBound, prevBounded
	}
	fire(e)
	if e == c.hub {
		c.flushMsgs()
	}
	for c.postCount() > 0 {
		n := c.postCount()
		c.flushPosts()
		// The replays sit at the hub's head: every other hub event keys
		// strictly after the fired event (pick gave the hub the tie),
		// while the replays key equal to it.
		for i := 0; i < n; i++ {
			fire(c.hub)
			c.flushMsgs()
		}
	}
}

// stepBounded fires the canonically-next event with the caller's bound
// folded in; it reports false when no events remain.
func (c *Cluster) stepBounded(callerBound Time) bool {
	e := c.pick()
	if e == nil {
		return false
	}
	if c.pacer != nil {
		pace(c.pacer, c.nextTime())
	}
	// The stepped engine must treat other engines' next events the way a
	// shared heap would: a run-ahead component may advance strictly up to
	// (never onto) them. RunBound is an inclusive edge, hence the -1.
	limit := callerBound
	consider := func(o *Engine) {
		if o == e {
			return
		}
		if n := o.NextEventAt(); n != Forever && n-1 < limit {
			limit = n - 1
		}
	}
	consider(c.hub)
	for _, o := range c.parts {
		consider(o)
	}
	c.stepOn(e, limit)
	// Exact steps bypass the per-phase probe refresh; a later round must
	// rescan every partition.
	c.markDirty()
	return true
}

// Step fires the canonically-next event across all engines; it reports
// false if no events are pending anywhere.
func (c *Cluster) Step() bool { return c.stepBounded(Forever) }

// RunWhile fires events in canonical order until cond() is false, no
// events remain, or a failure is recorded — the exact per-event stopping
// a sequential engine gives, so Go-side harness checks interleave
// identically.
func (c *Cluster) RunWhile(cond func() bool) bool {
	for cond() {
		if c.Failed() != nil {
			return false
		}
		if !c.Step() {
			return false
		}
	}
	return true
}

// RunUntil fires events with timestamps <= t in canonical order, then
// sets every engine's clock to t.
func (c *Cluster) RunUntil(t Time) {
	for {
		next := c.nextTime()
		if next > t {
			break
		}
		c.stepBounded(t)
	}
	c.hub.AdvanceTo(t)
	for _, e := range c.parts {
		e.AdvanceTo(t)
	}
}

// RunFor advances the cluster by d, firing all events in the window.
func (c *Cluster) RunFor(d Time) { c.RunUntil(c.Now() + d) }

// DrainBudget runs the cluster until quiescent, or until limit events
// have fired, returning an error wrapping ErrBudget in that case. A
// recorded failure stops the drain and is returned (the canonically-
// first one across partitions). Parallel rounds drive the drain unless
// Sequential is set.
func (c *Cluster) DrainBudget(limit uint64) error {
	if err := c.Failed(); err != nil {
		return err
	}
	start := c.Fired()
	if c.Sequential {
		for c.Step() {
			if err := c.Failed(); err != nil {
				return err
			}
			if c.Fired()-start > limit {
				return fmt.Errorf("%w (limit %d, %d still pending)", ErrBudget, limit, c.Pending())
			}
		}
		return nil
	}
	for c.round() {
		if err := c.Failed(); err != nil {
			return err
		}
		if c.Fired()-start > limit {
			return fmt.Errorf("%w (limit %d, %d still pending)", ErrBudget, limit, c.Pending())
		}
	}
	return nil
}
