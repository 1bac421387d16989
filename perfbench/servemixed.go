package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"secmon/internal/casestudy"
	"secmon/internal/model"
	"secmon/internal/server"
	"secmon/internal/state"
	"secmon/internal/synth"
)

// serveMixed is `secmon serve` restarted from a seeded tenant state
// directory, driven by closed-loop clients over keep-alive loopback
// connections with a seeded mix of optimize, sweep, simulate and mutate
// requests.
type serveMixed struct{}

const (
	// serveClients is the number of closed-loop clients: one per CPU of the
	// reference machine.
	serveClients = 2
	// serveHot is the number of hot-set repeats in one client round of
	// serveHot+len(serveFreshMix) requests, 1 of 9. Cache hits and
	// mutations, which mostly end in a sensitivity shortcut, answer in a
	// few milliseconds against a solve's 4 to 140; with this share they
	// make up about a third of the replies, so the median falls inside the
	// computed replies and the p99 tail far above both. A client stops only
	// between rounds.
	serveHot = 1
	// serveTenantHistory is the number of logged mutation batches each
	// tenant carries into the restart, which set-up replays.
	serveTenantHistory = 150
	// serveSimTrials is the campaign count of one /v1/simulate request, the
	// default of `secmon simulate-campaign -trials`.
	serveSimTrials = 1000
	// deadlineOff is the server's default and maximum solve deadline: long
	// enough that no request runs under a deadline that can bind.
	deadlineOff = time.Hour
)

// serveFreshMix is the kind of each fresh (non-repeated) request of a
// round, before the round is shuffled. The mix is synthetic, since no
// record of callers' traffic exists to draw it from: each of the four
// endpoints gets the same share, split evenly between its request kinds.
var serveFreshMix = []string{
	"optimize-max", "optimize-min",
	"sweep-grid", "sweep-budgets",
	"simulate", "simulate",
	"mutate", "mutate",
}

// serveHotMix is the kind of each request of the hot set: the fresh mix
// without mutate, whose replies are never cached.
var serveHotMix = []string{
	"optimize-max", "optimize-min",
	"sweep-grid", "sweep-budgets",
	"simulate", "simulate",
}

// serveModelSizes are the small synthetic models of the mix, monitors x
// attacks; their LP bases stay well below the 256-row LU dispatch.
var serveModelSizes = [][2]int{{100, 60}, {60, 100}, {120, 80}, {80, 120}}

// serveModel is one system the clients send requests about. The case study
// travels as an omitted system (the server's built-in default).
type serveModel struct {
	name string
	sys  *model.System // nil for the case study
	idx  *model.Index
}

// serveTenant is one restored tenant: its initial system and spec, and the
// history batches logged before the restart.
type serveTenant struct {
	id      string
	sys     *model.System
	spec    state.SolveSpec
	history [][]state.Delta
}

// serveReq is one generated request, with what the checks need to know
// about it.
type serveReq struct {
	kind    string // optimize, sweep, simulate or mutate
	path    string
	body    []byte
	model   int     // index into the models; -1 for mutate
	minCost bool    // optimize: MinCost
	goal    float64 // optimize: absolute budget (MaxUtility) or target (MinCost)
	tenant  int     // mutate: index into the tenants
	deltas  []state.Delta
	hot     bool
}

// serveInputs are the seeded inputs of one run: models, tenants and the
// hot set.
type serveInputs struct {
	models  []*serveModel
	tenants []*serveTenant
	hot     []*serveReq
}

// newServeInputs derives the hot set and (through the client generators)
// every request from the seed. The models and the tenants' histories are
// fixed: the case study, its small-business variant, and synthetic systems
// and mutations drawn from corpusSeed, because which models a run solves on
// moved tail latency between seeds by a fifth, and which history set-up
// replays moved set-up time between seeds by up to a factor of two.
func newServeInputs(seed int64) (*serveInputs, error) {
	in := &serveInputs{}
	cs, err := casestudy.BuildIndex()
	if err != nil {
		return nil, err
	}
	in.models = append(in.models, &serveModel{name: "casestudy", idx: cs})
	corpus := rand.New(rand.NewSource(corpusSeed))
	for _, sz := range serveModelSizes {
		sys, err := synth.Generate(synth.Config{Seed: corpus.Int63(), Monitors: sz[0], Attacks: sz[1]})
		if err != nil {
			return nil, err
		}
		idx, err := model.NewIndex(sys)
		if err != nil {
			return nil, err
		}
		in.models = append(in.models, &serveModel{name: fmt.Sprintf("synth-%dx%d", sz[0], sz[1]), sys: sys, idx: idx})
	}
	sb, err := casestudy.BuildSmallBusiness()
	if err != nil {
		return nil, err
	}
	// Tenants: the case study and its small-business variant, each at two
	// budgets and under MinCost. Synthetic tenants are left out: they made
	// the replay time move with the corpus by a sixth to a fifth.
	specs := []state.SolveSpec{{Budget: 0.3}, {Budget: 0.5}, {MinCost: true, Target: 0.8}}
	for i, base := range []*model.System{cs.System(), sb} {
		for j, spec := range specs {
			sys := base.Clone()
			spec.Budget *= sys.TotalMonitorCost()
			t := &serveTenant{id: fmt.Sprintf("tenant-%d", len(specs)*i+j), sys: sys, spec: spec}
			for h := 0; h < serveTenantHistory; h++ {
				t.history = append(t.history, []state.Delta{mutationDelta(corpus, t)})
			}
			in.tenants = append(in.tenants, t)
		}
	}
	hot := newClientGen(seed)
	for _, kind := range serveHotMix {
		q, err := hot.next(in, kind)
		if err != nil {
			return nil, err
		}
		q.hot = true
		in.hot = append(in.hot, q)
	}
	return in, nil
}

// mutationDelta draws one single-delta mutation for tenant t: a cost update
// of a random monitor, or for MaxUtility tenants sometimes a budget update.
func mutationDelta(r *rand.Rand, t *serveTenant) state.Delta {
	if !t.spec.MinCost && r.Intn(4) == 0 {
		b := wholeUnits(t.sys.TotalMonitorCost() * (0.2 + 0.4*r.Float64()))
		return state.Delta{Op: state.OpUpdateBudget, Budget: &b}
	}
	m := t.sys.Monitors[r.Intn(len(t.sys.Monitors))]
	capital, operational := 3+67*r.Float64(), 1+29*r.Float64()
	return state.Delta{Op: state.OpUpdateCost, MonitorID: m.ID, CapitalCost: &capital, OperationalCost: &operational}
}

// request draws one fresh request of the given kind on model mi (for
// mutate, on tenant mi).
func (in *serveInputs) request(r *rand.Rand, kind string, mi int) (*serveReq, error) {
	m := in.models[mi%len(in.models)]
	q := &serveReq{model: mi, tenant: -1}
	var body any
	switch kind {
	case "optimize-max":
		budget := wholeUnits((0.15 + 0.45*r.Float64()) * m.idx.System().TotalMonitorCost())
		q.kind, q.path, q.goal = "optimize", "/v1/optimize", budget
		body = server.OptimizeRequest{System: m.sys, Budget: &budget}
	case "optimize-min":
		target := 0.5 + 0.45*r.Float64()
		q.kind, q.path, q.minCost, q.goal = "optimize", "/v1/optimize", true, target
		body = server.OptimizeRequest{System: m.sys, MinCost: true, Target: &target, Clamp: true}
	case "sweep-grid":
		// Grids of different step counts share budget points (the random
		// baseline's seed is part of a point's key, so it stays fixed), so
		// these are answered in part or whole from the cache.
		q.kind, q.path = "sweep", "/v1/sweep"
		body = server.SweepRequest{System: m.sys, Seed: 1, Steps: 3 + r.Intn(4)}
	case "sweep-budgets":
		q.kind, q.path = "sweep", "/v1/sweep"
		req := server.SweepRequest{System: m.sys, Seed: r.Int63n(1000) + 1}
		total := m.idx.System().TotalMonitorCost()
		for i := 0; i < 4; i++ {
			req.Budgets = append(req.Budgets, wholeUnits(total*(0.1+0.8*r.Float64())))
		}
		sort.Float64s(req.Budgets)
		body = req
	case "simulate":
		q.kind, q.path = "simulate", "/v1/simulate"
		// The replay settings of campaign-loop, at the command line's
		// default campaign count.
		cfg := loopConfig(r.Int63n(1 << 40))
		req := server.SimulateRequest{
			System: m.sys, Seed: cfg.Seed, Trials: serveSimTrials,
			BenignRate: cfg.BenignRate, ManifestProb: cfg.ManifestProb, CaptureProb: cfg.CaptureProb,
			LateralProb: cfg.LateralProb, Check: true,
		}
		ids := m.idx.MonitorIDs()
		for _, id := range ids {
			if r.Intn(2) == 0 {
				req.Monitors = append(req.Monitors, id)
			}
		}
		body = req
	case "mutate":
		ti := mi % len(in.tenants)
		t := in.tenants[ti]
		q.kind, q.path, q.model, q.tenant = "mutate", "/v1/tenants/"+t.id+"/mutate", -1, ti
		q.deltas = []state.Delta{mutationDelta(r, t)}
		body = server.TenantMutateRequest{Deltas: q.deltas}
	default:
		return nil, fmt.Errorf("unknown request kind %q", kind)
	}
	var err error
	if q.body, err = json.Marshal(body); err != nil {
		return nil, err
	}
	return q, nil
}

// clientGen draws one client's request sequence. Models, tenants and hot
// requests are dealt per request kind from shuffled decks, so each kind
// spreads evenly over them in every run; drawn independently, the make-up
// of a run, and with it its latency, moved with the seed.
type clientGen struct {
	r     *rand.Rand
	decks map[string][]int
}

func newClientGen(seed int64) *clientGen {
	return &clientGen{r: rand.New(rand.NewSource(seed)), decks: make(map[string][]int)}
}

// deal returns the next index in [0, n) from kind's deck.
func (g *clientGen) deal(kind string, n int) int {
	d := g.decks[kind]
	if len(d) == 0 {
		d = g.r.Perm(n)
	}
	g.decks[kind] = d[1:]
	return d[0]
}

// next draws one fresh request of the given kind.
func (g *clientGen) next(in *serveInputs, kind string) (*serveReq, error) {
	n := len(in.models)
	if kind == "mutate" {
		n = len(in.tenants)
	}
	return in.request(g.r, kind, g.deal(kind, n))
}

// round draws one round of the client's sequence: serveHot repeats of the
// hot set and one fresh request of each serveFreshMix kind, shuffled.
func (g *clientGen) round(in *serveInputs) ([]*serveReq, error) {
	var round []*serveReq
	for i := 0; i < serveHot; i++ {
		round = append(round, in.hot[g.deal("hot", len(in.hot))])
	}
	for _, kind := range serveFreshMix {
		q, err := g.next(in, kind)
		if err != nil {
			return nil, err
		}
		round = append(round, q)
	}
	g.r.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
	return round, nil
}

// prepareState writes the tenant state directory the server restarts from:
// every tenant created and mutated through its history batches.
func prepareState(dir string, in *serveInputs) error {
	store, err := state.Open(dir)
	if err != nil {
		return err
	}
	for _, t := range in.tenants {
		tt, err := store.Create(t.id, t.sys.Clone(), t.spec)
		if err != nil {
			store.Close()
			return fmt.Errorf("create %s: %w", t.id, err)
		}
		for _, batch := range t.history {
			if _, err := tt.Mutate(batch); err != nil {
				store.Close()
				return fmt.Errorf("mutate %s: %w", t.id, err)
			}
		}
	}
	return store.Close()
}

// prepare writes the state directory once per run, before the set-ups
// that replay it.
func (serveMixed) prepare(o *options) error {
	in, err := newServeInputs(o.seed)
	if err != nil {
		return fmt.Errorf("inputs: %w", err)
	}
	dir, err := runDir(o, "serve-state")
	if err != nil {
		return err
	}
	if err := prepareState(dir, in); err != nil {
		return fmt.Errorf("prepare state: %w", err)
	}
	return nil
}

func (serveMixed) setup(o *options, tr *tracer) (session, error) {
	in, err := newServeInputs(o.seed)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	return startServer(o, tr, filepath.Join(o.tmp, "serve-state"), in)
}

// startServer is the measured set-up: build the server, which replays every
// tenant log in dir, and start serving on a loopback port.
func startServer(o *options, tr *tracer, dir string, in *serveInputs) (*serveSession, error) {
	root := tr.start("setup", -1, 0)
	defer tr.end(root, "", "")
	sp := tr.start("state.replay", root, 0)
	srv := server.New(server.Config{StateDir: dir, DefaultDeadline: deadlineOff, MaxDeadline: deadlineOff})
	tr.end(sp, "", "")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &serveSession{
		dir: dir, in: in, base: "http://" + l.Addr().String(),
		cancel: cancel, served: make(chan error, 1),
		transport: &http.Transport{Proxy: nil, MaxIdleConnsPerHost: serveClients, DisableCompression: true},
		misses:    make(map[[32]byte]map[[32]byte]bool),
	}
	s.client = &http.Client{Transport: s.transport}
	go func() {
		err := srv.Serve(ctx, l)
		l.Close() // a server that failed to start leaves the port open; refuse the clients
		s.served <- err
	}()
	if _, _, err := s.do(http.MethodGet, "/v1/healthz", nil); err != nil {
		s.close()
		return nil, fmt.Errorf("server did not come up: %w", err)
	}
	for c := 0; c < serveClients; c++ {
		s.gens = append(s.gens, newClientGen(o.seed*1000+int64(c)+1))
	}
	return s, nil
}

type serveSession struct {
	dir       string
	in        *serveInputs
	base      string
	cancel    context.CancelFunc
	served    chan error
	closed    bool
	transport *http.Transport
	client    *http.Client
	gens      []*clientGen

	mu      sync.Mutex
	replies []*serveReply
	misses  map[[32]byte]map[[32]byte]bool // request hash -> body hashes of computed replies

	// traced-phase server counters
	statsBefore, statsAfter serverStats
	logBytes                [2]int64
}

// serveReply is one recorded reply. Bodies of cache hits and coalesced
// replies are kept only as hashes: they must equal a fresh reply's bytes.
type serveReply struct {
	req      *serveReq
	cache    string
	body     []byte
	bodyHash [32]byte
}

// serverStats is the part of GET /v1/stats the benchmark reads.
type serverStats struct {
	Coalesced int64 `json:"coalesced"`
	Queued    int64 `json:"queued"`
	Solves    int64 `json:"solves"`
	CacheHits int64 `json:"cacheHits"`
	State     *struct {
		Mutations uint64 `json:"mutations"`
		Shortcuts uint64 `json:"shortcuts"`
	} `json:"state"`
}

// do sends one request and reads the whole reply.
func (s *serveSession) do(method, path string, body []byte) ([]byte, string, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return nil, "", err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(out)))
	}
	return out, resp.Header.Get("Secmon-Cache"), nil
}

func (s *serveSession) stats() (serverStats, error) {
	var st serverStats
	body, _, err := s.do(http.MethodGet, "/v1/stats", nil)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(body, &st)
}

// run drives the closed-loop clients until the deadline; each client stops
// only between whole rounds.
func (s *serveSession) run(deadline time.Time, ph *phase) error {
	if ph.tr != nil {
		var err error
		if s.statsBefore, err = s.stats(); err != nil {
			return err
		}
		s.logBytes[0] = dirBytes(s.dir)
	}
	var wg sync.WaitGroup
	errs := make([]error, serveClients)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = s.drive(c, deadline, ph)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if ph.tr != nil {
		var err error
		if s.statsAfter, err = s.stats(); err != nil {
			return err
		}
		s.logBytes[1] = dirBytes(s.dir)
	}
	return nil
}

// drive runs one closed-loop client: it sends the next request only after
// the previous reply has been read.
func (s *serveSession) drive(c int, deadline time.Time, ph *phase) error {
	for time.Now().Before(deadline) {
		round, err := s.gens[c].round(s.in)
		if err != nil {
			return err
		}
		for _, q := range round {
			op := ph.nextOp()
			root := ph.tr.start("op."+q.kind, -1, op)
			call := ph.tr.start("server."+q.kind, root, op)
			t := time.Now()
			body, cache, err := s.do(http.MethodPost, q.path, q.body)
			d := time.Since(t)
			ph.tr.end(call, "", cache)
			ph.tr.end(root, "", "")
			ph.record(q.kind, d, err)
			if err != nil {
				continue
			}
			s.keep(q, cache, body, ph)
		}
	}
	return nil
}

// keep records a reply for the checks and, in the traced phase, folds the
// solver counters of fresh replies into the tally.
func (s *serveSession) keep(q *serveReq, cache string, body []byte, ph *phase) {
	rp := &serveReply{req: q, cache: cache, bodyHash: sha256.Sum256(body)}
	fresh := cache == "miss" || cache == ""
	if fresh || cache == "partial" {
		rp.body = body
	}
	if ph.tr != nil && cache == "miss" {
		tallyReply(q.kind, body, &ph.solver)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.replies = append(s.replies, rp)
	// A computed reply, whole or assembled from cached sweep points, is
	// what the response cache stores and later hits must repeat.
	if cache == "miss" || cache == "partial" {
		k := sha256.Sum256(append([]byte(q.path), q.body...))
		if s.misses[k] == nil {
			s.misses[k] = make(map[[32]byte]bool)
		}
		s.misses[k][rp.bodyHash] = true
	}
}

// tallyReply adds the solver counters carried in a fresh reply.
func tallyReply(kind string, body []byte, t *solverTally) {
	switch kind {
	case "optimize":
		var resp server.OptimizeResponse
		if json.Unmarshal(body, &resp) == nil && resp.Result != nil {
			t.add(&resp.Result.Stats)
		}
	case "sweep":
		var resp server.SweepResponse
		if json.Unmarshal(body, &resp) == nil {
			for _, p := range resp.Points {
				if p.Optimal != nil {
					t.add(&p.Optimal.Stats)
				}
			}
		}
	}
}

func (s *serveSession) layers(ph *phase, m map[string]float64) {
	agg := aggregate(ph.tr.snapshot())
	for _, k := range []string{"optimize", "sweep", "simulate", "mutate"} {
		m["server.request_ms."+k] = agg["server."+k].wallMS()
	}
	for _, tag := range []string{"miss", "hit", "coalesced", "partial"} {
		var sum spanAgg
		for _, k := range []string{"optimize", "sweep", "simulate"} {
			a := agg["server."+k+"|"+tag]
			sum.Count += a.Count
			sum.WallNS += a.WallNS
		}
		m["server.request_ms."+tag] = sum.wallMS()
	}
	attempted, _ := ph.totals()
	if attempted > 0 {
		b, a := s.statsBefore, s.statsAfter
		n := float64(attempted)
		m["server.solves_per_request"] = float64(a.Solves-b.Solves) / n
		m["server.cache_hits_per_request"] = float64(a.CacheHits-b.CacheHits) / n
		m["server.coalesced_per_request"] = float64(a.Coalesced-b.Coalesced) / n
		m["server.queued"] = float64(a.Queued - b.Queued)
	}
	if b, a := s.statsBefore.State, s.statsAfter.State; a != nil && b != nil && a.Mutations > b.Mutations {
		n := float64(a.Mutations - b.Mutations)
		m["state.shortcut_ratio"] = float64(a.Shortcuts-b.Shortcuts) / n
		m["state.log_bytes_per_batch"] = float64(s.logBytes[1]-s.logBytes[0]) / n
	}
}

// dirBytes is the total size of the regular files in dir.
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}

func (s *serveSession) close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.transport.CloseIdleConnections()
	s.cancel()
	return <-s.served
}
