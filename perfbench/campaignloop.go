package main

import (
	"fmt"
	"math/rand"
	"time"

	"secmon/internal/campaign"
	"secmon/internal/casestudy"
	"secmon/internal/core"
	"secmon/internal/model"
	"secmon/internal/state"
)

// campaignLoop is the validation loop of `secmon simulate-campaign
// -feedback` and `secmon mutate -deltas`: episodes of rounds, each round
// replaying campaigns against a tenant's deployment, checking them against
// the analytic metrics, and feeding the detection shortfalls back into the
// tenant as a mutation batch.
type campaignLoop struct{}

const (
	// loopEpisodes is the number of case-study tenants set-up creates, a
	// multiple of loopBudgetLevels; the timed phase runs loopRounds rounds
	// on each in turn and starts over when it has used them all.
	loopEpisodes = 80
	loopRounds   = 6
	// loopTrials is the campaign count of one round's replay.
	loopTrials = 5000
)

// loopConfig is the campaign configuration of one round: lateral movement
// and benign background, so the analytic metrics are upper bounds the
// replay must stay under, and shortfalls appear for the feedback to act on.
func loopConfig(seed int64) campaign.Config {
	return campaign.Config{
		Seed: seed, Trials: loopTrials, Warmup: 200, Workers: benchProcs,
		BenignRate: 20, ManifestProb: 0.9, CaptureProb: 0.8, LateralProb: 0.1,
	}
}

// loopBudgetLevels is the number of budget strata of the episodes.
const loopBudgetLevels = 8

// loopBudgets returns each episode's budget fraction in [0.2, 0.7). The
// fractions are fixed, drawn from corpusSeed, ten in each eighth of the
// range: drawn from the run seed, they moved set-up time, which solves
// every episode once, by a fifth between seeds. The run seed orders them,
// stratified: every run of loopBudgetLevels consecutive episodes holds one
// budget from each stratum, in a seeded order, so the episodes a run
// reaches always span the whole range. A round's cost grows with the
// deployment the budget buys.
func loopBudgets(seed int64) []float64 {
	corpus := rand.New(rand.NewSource(corpusSeed))
	const lo, width = 0.2, 0.5 / loopBudgetLevels
	strata := make([][]float64, loopBudgetLevels)
	for i := 0; i < loopEpisodes; i++ {
		level := i % loopBudgetLevels
		strata[level] = append(strata[level], lo+width*(float64(level)+corpus.Float64()))
	}
	r := rand.New(rand.NewSource(seed))
	for _, st := range strata {
		r.Shuffle(len(st), func(i, j int) { st[i], st[j] = st[j], st[i] })
	}
	out := make([]float64, 0, loopEpisodes)
	for k := 0; len(out) < loopEpisodes; k++ {
		for _, level := range r.Perm(loopBudgetLevels) {
			out = append(out, strata[level][k])
		}
	}
	return out
}

func (campaignLoop) setup(o *options, tr *tracer) (session, error) {
	root := tr.start("setup", -1, 0)
	defer tr.end(root, "", "")
	sys, err := casestudy.Build()
	if err != nil {
		return nil, err
	}
	sp := tr.start("model.index", root, 0)
	_, err = model.NewIndex(sys)
	tr.end(sp, "", "")
	if err != nil {
		return nil, err
	}
	dir, err := runDir(o, "campaign-state")
	if err != nil {
		return nil, err
	}
	sp = tr.start("state.replay", root, 0)
	store, err := state.Open(dir)
	tr.end(sp, "", "")
	if err != nil {
		return nil, err
	}
	s := &loopSession{seed: o.seed, dir: dir, store: store, rng: rand.New(rand.NewSource(o.seed))}
	for i, frac := range loopBudgets(o.seed) {
		spec := state.SolveSpec{Budget: wholeUnits(sys.TotalMonitorCost() * frac)}
		sp := tr.start("state.create", root, 0)
		t, err := store.Create(fmt.Sprintf("episode-%d", i), sys.Clone(), spec)
		tr.end(sp, "", "")
		if err != nil {
			store.Close()
			return nil, fmt.Errorf("create episode %d: %w", i, err)
		}
		s.tenants = append(s.tenants, t)
	}
	return s, nil
}

type loopSession struct {
	seed    int64
	dir     string
	store   *state.Store
	closed  bool
	rng     *rand.Rand
	tenants []*state.Tenant
	round   int

	rounds []loopRound // recorded for the checks

	// traced-phase counters
	events, trials          int64
	deltas                  int
	statsBefore, statsAfter state.Snapshot
	logBytes                [2]int64
}

// loopRound is what one round produced, kept for the checks.
type loopRound struct {
	tenant      int
	divergences []campaign.Divergence
	replay      *replayInput // the replay's inputs, kept when it diverged
	budget      float64
	sys         *model.System // the model the round's result must hold on
	result      *core.Result  // nil when the round had no shortfall to feed back
}

// run executes whole rounds until the deadline has passed.
func (s *loopSession) run(deadline time.Time, ph *phase) error {
	if ph.tr != nil {
		s.statsBefore = s.store.Stats()
		s.logBytes[0] = dirBytes(s.dir)
	}
	for time.Now().Before(deadline) {
		ti := (s.round / loopRounds) % len(s.tenants)
		s.round++
		op := ph.nextOp()
		t := time.Now()
		lr, err := s.oneRound(ti, op, ph)
		ph.record("round", time.Since(t), err)
		if err == nil {
			s.rounds = append(s.rounds, lr)
		}
	}
	if ph.tr != nil {
		s.statsAfter = s.store.Stats()
		s.logBytes[1] = dirBytes(s.dir)
	}
	return nil
}

// oneRound replays campaigns against tenant ti's current deployment,
// checks them against the analytic metrics and feeds the shortfalls back.
func (s *loopSession) oneRound(ti int, op int64, ph *phase) (loopRound, error) {
	tr := ph.tr
	tenant := s.tenants[ti]
	root := tr.start("op.round", -1, op)
	defer tr.end(root, "", tenant.ID())
	lr := loopRound{tenant: ti, budget: tenant.Spec().Budget}

	sp := tr.start("model.index", root, op)
	sys := tenant.System()
	idx, err := model.NewIndex(sys)
	tr.end(sp, "", "")
	if err != nil {
		return lr, err
	}
	d := tenant.Last().Deployment
	cfg := loopConfig(s.rng.Int63())

	sp = tr.start("campaign.run", root, op)
	sum, err := campaign.Run(idx, d, cfg)
	tr.end(sp, "", "")
	if err != nil {
		return lr, err
	}
	sp = tr.start("campaign.analytic", root, op)
	pred, err := campaign.Analytic(idx, d, cfg)
	tr.end(sp, "", "")
	if err != nil {
		return lr, err
	}
	sp = tr.start("campaign.check", root, op)
	lr.divergences = pred.Check(sum)
	tr.end(sp, "", "")
	if len(lr.divergences) > 0 {
		lr.replay = &replayInput{sys.Clone(), d.Clone(), cfg}
	}
	sp = tr.start("campaign.shortfalls", root, op)
	shortfalls := campaign.Shortfalls(sum, pred)
	tr.end(sp, "", "")
	sp = tr.start("campaign.feedback", root, op)
	deltas, err := campaign.FeedbackDeltas(idx, shortfalls, 1)
	tr.end(sp, "", "")
	if err != nil {
		return lr, err
	}
	if tr != nil {
		s.events += sum.Events + sum.BenignEvents
		s.trials += int64(sum.Campaigns)
		s.deltas += len(deltas)
	}
	if len(deltas) == 0 {
		return lr, nil
	}
	sp = tr.start("state.mutate", root, op)
	res, err := tenant.Mutate(deltas)
	tr.end(sp, "", "")
	if err != nil {
		return lr, err
	}
	if tr != nil {
		ph.solver.add(&res.Stats)
	}
	var spec state.SolveSpec // feedback leaves the spec as it is
	applyDeltas(sys, &spec, deltas)
	lr.sys, lr.result = sys, res
	return lr, nil
}

func (s *loopSession) layers(ph *phase, m map[string]float64) {
	agg := aggregate(ph.tr.snapshot())
	run := agg["campaign.run"]
	m["campaign.run_ms"] = run.selfMS()
	if run.SelfNS > 0 {
		m["campaign.events_per_s"] = float64(s.events) / (float64(run.SelfNS) / 1e9)
		m["campaign.trials_per_s"] = float64(s.trials) / (float64(run.SelfNS) / 1e9)
	}
	m["campaign.analytic_ms"] = agg["campaign.analytic"].selfMS()
	m["state.mutate_ms"] = agg["state.mutate"].selfMS()
	if n := agg["op.round"].Count; n > 0 {
		m["campaign.deltas_per_round"] = float64(s.deltas) / float64(n)
	}
	if b, a := s.statsBefore, s.statsAfter; a.Mutations > b.Mutations {
		n := float64(a.Mutations - b.Mutations)
		m["state.shortcut_ratio"] = float64(a.Shortcuts-b.Shortcuts) / n
		m["state.log_bytes_per_batch"] = float64(s.logBytes[1]-s.logBytes[0]) / n
	}
}

// check requires every replay to agree with the analytic metrics, every
// fed-back re-solve to hold on its model, the certified optimum on a seeded
// subset of tenants, detection that never drops when a monitor is added,
// and a state directory that reopens to the same tenants.
func (s *loopSession) check(o *options) error {
	for i, lr := range s.rounds {
		if len(lr.divergences) > 0 {
			if err := confirmDivergence(lr.replay, lr.divergences); err != nil {
				return fmt.Errorf("round %d: %w", i, err)
			}
		}
		if lr.result == nil {
			continue
		}
		idx, err := model.NewIndex(lr.sys)
		if err != nil {
			return err
		}
		if err := checkDeployment(idx, lr.result, false, lr.budget); err != nil {
			return fmt.Errorf("round %d on %s: %w", i, s.tenants[lr.tenant].ID(), err)
		}
	}
	used := min(len(s.tenants), (s.round+loopRounds-1)/loopRounds)
	for _, i := range certifyPicks(o, used, func(int) bool { return true }) {
		t := s.tenants[i]
		idx, err := model.NewIndex(t.System())
		if err != nil {
			return err
		}
		if err := certifyObjective(solveSpec{idx: idx, goal: t.Spec().Budget}, t.Last().Utility); err != nil {
			return fmt.Errorf("%s: %w", t.ID(), err)
		}
	}
	if err := s.checkMonotone(); err != nil {
		return err
	}
	return s.checkReopen()
}

// checkMonotone replays the same seed against the first tenant's deployment
// with and without one more monitor: no attack may be detected less often.
func (s *loopSession) checkMonotone() error {
	t := s.tenants[0]
	idx, err := model.NewIndex(t.System())
	if err != nil {
		return err
	}
	d := t.Last().Deployment
	var extra model.MonitorID
	for _, id := range idx.MonitorIDs() {
		if !d.Contains(id) {
			extra = id
			break
		}
	}
	if extra == "" {
		return nil // every monitor already deployed
	}
	more := d.Clone()
	more.Add(extra)
	cfg := loopConfig(s.seed)
	a, err := campaign.Run(idx, d, cfg)
	if err != nil {
		return err
	}
	b, err := campaign.Run(idx, more, cfg)
	if err != nil {
		return err
	}
	detected := make(map[model.AttackID]int)
	for _, o := range a.PerAttack {
		detected[o.Attack] = o.Detected
	}
	for _, o := range b.PerAttack {
		if o.Detected < detected[o.Attack] {
			return fmt.Errorf("adding %s dropped detections of %s from %d to %d", extra, o.Attack, detected[o.Attack], o.Detected)
		}
	}
	return nil
}

// checkReopen closes the store and requires the directory to reopen to
// the same tenants.
func (s *loopSession) checkReopen() error {
	want := make(map[string]tenantState)
	for _, t := range s.tenants {
		want[t.ID()] = tenantState{t.Version(), t.Last().Utility, t.Last().Cost}
	}
	if err := s.close(); err != nil {
		return err
	}
	return checkReopen(s.dir, want)
}

func (s *loopSession) close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	return s.store.Close()
}
