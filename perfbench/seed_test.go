package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"secmon/internal/model"
	"secmon/internal/synth"
)

// TestSolveBatchSeedDeterminism checks that the instance set is the same
// bytes on every build of it and that the seed alone fixes the order of
// the solves.
func TestSolveBatchSeedDeterminism(t *testing.T) {
	encode := func() []byte {
		plan := planSolveBatch()
		var buf bytes.Buffer
		for _, cfg := range plan.systems {
			if cfg.Monitors >= 5000 {
				cfg.Monitors, cfg.Attacks = 500, 100 // keep the test quick; the seed path is the same
			}
			sys, err := synth.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := model.EncodeSystem(&buf, sys); err != nil {
				t.Fatal(err)
			}
		}
		fmt.Fprintf(&buf, "%+v", plan.solves)
		return buf.Bytes()
	}
	if !bytes.Equal(encode(), encode()) {
		t.Fatal("the instance set differs between builds")
	}
	order := func(seed int64) []int {
		r := rand.New(rand.NewSource(seed))
		return append(passOrder(r, 66), passOrder(r, 66)...)
	}
	if !reflect.DeepEqual(order(42), order(42)) || reflect.DeepEqual(order(42), order(43)) {
		t.Fatal("the order of the solves does not follow the seed")
	}
	if p := planSolveBatch(); len(p.solves) != solveReplicates*len(solveSizes)*len(solveKinds)+blockSystems {
		t.Fatalf("plan has %d solves", len(p.solves))
	}
}

// requestBytes encodes the first rounds of each client's request
// sequence of a seed, with the state-directory history.
func requestBytes(t *testing.T, seed int64) []byte {
	t.Helper()
	in, err := newServeInputs(seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, tn := range in.tenants {
		body, err := json.Marshal(tn.history)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(body)
	}
	for c := 0; c < serveClients; c++ {
		g := newClientGen(seed*1000 + int64(c) + 1)
		for i := 0; i < 3; i++ {
			round, err := g.round(in)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range round {
				buf.WriteString(q.path)
				buf.Write(q.body)
			}
		}
	}
	return buf.Bytes()
}

func TestServeSeedDeterminism(t *testing.T) {
	a, b := requestBytes(t, 7), requestBytes(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed gave different request sequences")
	}
	if bytes.Equal(a, requestBytes(t, 8)) {
		t.Fatal("different seeds gave the same request sequence")
	}
}

func TestServeRoundMix(t *testing.T) {
	in, err := newServeInputs(3)
	if err != nil {
		t.Fatal(err)
	}
	round, err := newClientGen(1).round(in)
	if err != nil {
		t.Fatal(err)
	}
	hot := 0
	for _, q := range round {
		if q.hot {
			hot++
		}
	}
	if want := serveHot + len(serveFreshMix); len(round) != want || hot != serveHot {
		t.Fatalf("round of %d requests with %d hot, want %d with %d", len(round), hot, want, serveHot)
	}
}

func TestCampaignLoopSeedDeterminism(t *testing.T) {
	if !reflect.DeepEqual(loopBudgets(5), loopBudgets(5)) || reflect.DeepEqual(loopBudgets(5), loopBudgets(6)) {
		t.Fatal("the order of the episode budgets does not follow the seed")
	}
	a, b := loopBudgets(5), loopBudgets(6)
	sort.Float64s(a)
	sort.Float64s(b)
	if !reflect.DeepEqual(a, b) || len(a) != loopEpisodes {
		t.Fatal("the episode budgets differ between seeds")
	}
}
