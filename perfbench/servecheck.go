package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"

	"secmon/internal/campaign"
	"secmon/internal/core"
	"secmon/internal/model"
	"secmon/internal/server"
	"secmon/internal/state"
)

// servePartialSample is how many partially cached sweep replies a run
// compares with a fresh solve of the same request.
const servePartialSample = 5

// check verifies every recorded reply, then restarts the state directory
// and confirms that it reproduces every tenant.
func (s *serveSession) check(o *options) error {
	var partials []*serveReply
	var optimizes []*serveReply
	mutations := make(map[int][]tenantMutation)
	for _, rp := range s.replies {
		q := rp.req
		if rp.cache == "hit" || rp.cache == "coalesced" {
			k := sha256.Sum256(append([]byte(q.path), q.body...))
			if !s.misses[k][rp.bodyHash] {
				return fmt.Errorf("%s %s reply differs from every computed reply to the same request", q.kind, rp.cache)
			}
			continue
		}
		switch q.kind {
		case "optimize":
			var resp server.OptimizeResponse
			if err := json.Unmarshal(rp.body, &resp); err != nil || resp.Result == nil {
				return fmt.Errorf("optimize reply: %v", err)
			}
			if err := checkDeployment(s.in.models[q.model].idx, resp.Result, q.minCost, q.goal); err != nil {
				return fmt.Errorf("optimize on %s: %w", s.in.models[q.model].name, err)
			}
			if !q.hot {
				optimizes = append(optimizes, rp)
			}
		case "sweep":
			if err := checkSweep(s.in.models[q.model].idx, rp.body); err != nil {
				return fmt.Errorf("sweep on %s: %w", s.in.models[q.model].name, err)
			}
			if rp.cache == "partial" {
				partials = append(partials, rp)
			}
		case "simulate":
			var resp server.SimulateResponse
			if err := json.Unmarshal(rp.body, &resp); err != nil || resp.Summary == nil {
				return fmt.Errorf("simulate reply: %v", err)
			}
			if resp.Converged == nil {
				return fmt.Errorf("simulate on %s: reply without the convergence check", s.in.models[q.model].name)
			}
			if !*resp.Converged {
				in, err := simulateInput(s.in.models[q.model], q)
				if err != nil {
					return err
				}
				if err := confirmDivergence(in, resp.Divergences); err != nil {
					return fmt.Errorf("simulate on %s: %w", s.in.models[q.model].name, err)
				}
			}
			if resp.Summary.Campaigns != serveSimTrials {
				return fmt.Errorf("simulate replayed %d campaigns, asked %d", resp.Summary.Campaigns, serveSimTrials)
			}
		case "mutate":
			var resp server.TenantResponse
			if err := json.Unmarshal(rp.body, &resp); err != nil || resp.Result == nil {
				return fmt.Errorf("mutate reply: %v", err)
			}
			mutations[q.tenant] = append(mutations[q.tenant], tenantMutation{&resp, q.deltas})
		}
	}
	if err := s.checkPartials(partials); err != nil {
		return err
	}
	if err := s.checkCertified(o, optimizes); err != nil {
		return err
	}
	if err := s.checkTenants(mutations); err != nil {
		return err
	}
	return s.checkReopen()
}

// checkSweep asserts the properties of a sweep: every point proven and
// re-evaluated within its budget, optimal utility never decreasing as the
// budget grows, and never below the greedy baseline at the same point.
func checkSweep(idx *model.Index, body []byte) error {
	var resp server.SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	pts := resp.Points
	sort.SliceStable(pts, func(i, j int) bool { return pts[i].Budget < pts[j].Budget })
	for i, p := range pts {
		if p.Optimal == nil || p.Greedy == nil {
			return fmt.Errorf("point %d lacks a result", i)
		}
		if err := checkDeployment(idx, p.Optimal, false, p.Budget); err != nil {
			return fmt.Errorf("point at budget %v: %w", p.Budget, err)
		}
		if p.Optimal.Utility < p.Greedy.Utility-1e-9 {
			return fmt.Errorf("optimal utility %v below greedy %v at budget %v", p.Optimal.Utility, p.Greedy.Utility, p.Budget)
		}
		if i > 0 && p.Optimal.Utility < pts[i-1].Optimal.Utility-1e-9 {
			return fmt.Errorf("utility fell from %v to %v as the budget grew to %v", pts[i-1].Optimal.Utility, p.Optimal.Utility, p.Budget)
		}
	}
	return nil
}

// checkPartials re-sends a sample of the sweeps that were assembled from
// cached budget points to a server without a cache, and requires the same
// reply apart from the solve-effort counters: points solved along a
// different warm-start chain take different node and pivot counts to the
// same results.
func (s *serveSession) checkPartials(partials []*serveReply) error {
	fresh := server.New(server.Config{CacheSize: -1, DefaultDeadline: deadlineOff, MaxDeadline: deadlineOff})
	defer fresh.Close()
	for i, rp := range partials {
		if i == servePartialSample {
			break
		}
		req := httptest.NewRequest(http.MethodPost, rp.req.path, bytes.NewReader(rp.req.body))
		rec := httptest.NewRecorder()
		fresh.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("fresh sweep: status %d", rec.Code)
		}
		a, err := withoutEffort(rp.body)
		if err != nil {
			return err
		}
		b, err := withoutEffort(rec.Body.Bytes())
		if err != nil {
			return err
		}
		if !bytes.Equal(a, b) {
			return fmt.Errorf("partially cached sweep differs from a fresh solve of the same request")
		}
	}
	return nil
}

// withoutEffort re-encodes a sweep reply with every result's solve
// statistics cleared.
func withoutEffort(body []byte) ([]byte, error) {
	var resp server.SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	for _, p := range resp.Points {
		for _, r := range []*core.Result{p.Optimal, p.Greedy, p.Random} {
			if r != nil {
				r.Stats = core.SolveStats{}
			}
		}
	}
	return json.Marshal(resp)
}

// checkCertified confirms the optimum of a seeded subset of the fresh
// optimize replies against a verified certificate.
func (s *serveSession) checkCertified(o *options, replies []*serveReply) error {
	for _, i := range certifyPicks(o, len(replies), func(int) bool { return true }) {
		rp := replies[i]
		var resp server.OptimizeResponse
		if err := json.Unmarshal(rp.body, &resp); err != nil {
			return err
		}
		sp := solveSpec{idx: s.in.models[rp.req.model].idx, minCost: rp.req.minCost, goal: rp.req.goal}
		if err := certifyObjective(sp, objectiveOf(resp.Result, sp.minCost)); err != nil {
			return fmt.Errorf("optimize on %s: %w", s.in.models[rp.req.model].name, err)
		}
	}
	return nil
}

// tenantMutation is one mutate reply with the deltas its request sent.
type tenantMutation struct {
	resp   *server.TenantResponse
	deltas []state.Delta
}

// checkTenants replays each tenant's history and run mutations on a copy
// of its model, in log order, and re-evaluates the result every mutate
// reply reported against the model at that version.
func (s *serveSession) checkTenants(mutations map[int][]tenantMutation) error {
	for ti, t := range s.in.tenants {
		sys, spec := t.sys.Clone(), t.spec
		for _, batch := range t.history {
			applyDeltas(sys, &spec, batch)
		}
		base := uint64(1 + len(t.history)) // the init record, then one record per single-delta batch
		muts := mutations[ti]
		sort.Slice(muts, func(i, j int) bool { return muts[i].resp.Version < muts[j].resp.Version })
		for i, m := range muts {
			resp := m.resp
			if want := base + uint64(i) + 1; resp.Version != want {
				return fmt.Errorf("%s: mutation versions skip: got %d, want %d", t.id, resp.Version, want)
			}
			applyDeltas(sys, &spec, m.deltas)
			idx, err := model.NewIndex(sys)
			if err != nil {
				return err
			}
			goal := spec.Budget
			if spec.MinCost {
				goal = spec.Target
			}
			if err := checkDeployment(idx, resp.Result, spec.MinCost, goal); err != nil {
				return fmt.Errorf("%s at version %d: %w", t.id, resp.Version, err)
			}
		}
	}
	return nil
}

// checkReopen reads every tenant from the running server, stops it, and
// requires the state directory to reopen to the same tenants.
func (s *serveSession) checkReopen() error {
	want := make(map[string]tenantState)
	for _, t := range s.in.tenants {
		body, _, err := s.do(http.MethodGet, "/v1/tenants/"+t.id, nil)
		if err != nil {
			return err
		}
		var resp server.TenantResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		want[t.id] = tenantState{resp.Version, resp.Result.Utility, resp.Result.Cost}
	}
	if err := s.close(); err != nil {
		return fmt.Errorf("stop server: %w", err)
	}
	return checkReopen(s.dir, want)
}

// simulateInput is the replay a /v1/simulate request asked for, mapped to
// the campaign configuration as the server maps it.
func simulateInput(m *serveModel, q *serveReq) (*replayInput, error) {
	var req server.SimulateRequest
	if err := json.Unmarshal(q.body, &req); err != nil {
		return nil, fmt.Errorf("simulate request: %v", err)
	}
	return &replayInput{
		sys: m.idx.System(),
		d:   model.NewDeployment(req.Monitors...),
		cfg: campaign.Config{
			Seed: req.Seed, Trials: req.Trials, Warmup: req.Warmup, Workers: req.Workers,
			ArrivalRate: req.ArrivalRate, BenignRate: req.BenignRate, DwellMean: req.DwellMean,
			ManifestProb: req.ManifestProb, CaptureProb: req.CaptureProb, LateralProb: req.LateralProb,
			Batches: req.Batches,
		},
	}, nil
}
