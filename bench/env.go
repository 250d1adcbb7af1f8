package main

import (
	"wsan"
	"wsan/internal/graph"
	"wsan/internal/topology"
)

// rhoT is the minimum channel-reuse hop distance every workload schedules
// and validates with (the paper's ρ_t).
const rhoT = 2

// env is one testbed operated on a channel list: the graphs the layer calls
// take, and the public Network over the same testbed.
type env struct {
	tb  *topology.Testbed
	chs []int
	gc  *graph.Graph
	hop *graph.HopMatrix
	aps []int
	net *wsan.Network
}

// buildEnv generates the evaluation testbed (topology seed 1, as in the
// paper) and derives its graphs, one span per layer call.
func buildEnv(gen topology.GenConfig, channels int, rec *recorder, root int) (*env, error) {
	e := &env{chs: topology.Channels(channels)}
	var err error
	if e.tb, err = timed(rec, "topology.Generate", root, -1, func() (*topology.Testbed, error) {
		return topology.Generate(gen, 1)
	}); err != nil {
		return nil, err
	}
	if e.gc, err = timed(rec, "topology.CommGraph", root, -1, func() (*graph.Graph, error) {
		return e.tb.CommGraph(e.chs, 0.9)
	}); err != nil {
		return nil, err
	}
	gr, err := timed(rec, "topology.ReuseGraph", root, -1, func() (*graph.Graph, error) {
		return e.tb.ReuseGraph(e.chs)
	})
	if err != nil {
		return nil, err
	}
	e.hop, _ = timed(rec, "graph.AllPairsHop", root, -1, func() (*graph.HopMatrix, error) {
		return gr.AllPairsHop(), nil
	})
	e.aps = topology.AccessPoints(e.gc, 2)
	if e.net, err = timed(rec, "wsan.NewNetwork", root, -1, func() (*wsan.Network, error) {
		return wsan.NewNetwork(e.tb, channels)
	}); err != nil {
		return nil, err
	}
	return e, nil
}
