package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"wsan/internal/obs"
	"wsan/internal/soak"
)

// The soak subcommand drives the sustained-churn harness from the command
// line: a seeded add/remove/reroute/re-budget delta stream (with periodic
// node-fault batches) against a large live schedule, with the replay
// oracle and the checkpoint audit checking for drift. It prints counts and
// the oracle's verdict; the benchmark's churn-500f workload times the same
// op mix.
//
//	wsansim soak                          # 500 flows, 5000 ops, Indriya
//	wsansim soak -flows 200 -ops 20000 -oracle-every 2000
//	wsansim soak -json > soak.json        # machine-readable result
func runSoak(args []string, mets obs.Sink) error {
	cfg := soak.DefaultConfig()
	cfg.Metrics = mets
	fs := flag.NewFlagSet("soak", flag.ContinueOnError)
	fs.IntVar(&cfg.Flows, "flows", cfg.Flows, "steady-state active flow target (pool is 2x)")
	fs.IntVar(&cfg.Channels, "channels", cfg.Channels, "number of channels")
	fs.IntVar(&cfg.Ops, "ops", cfg.Ops, "churn operations after warmup")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "workload and op-stream seed")
	fs.Int64Var(&cfg.TopoSeed, "toposeed", cfg.TopoSeed, "testbed generation seed")
	fs.IntVar(&cfg.BatchEvery, "batch-every", cfg.BatchEvery, "inject a node-fault batch every N ops (0 disables)")
	fs.IntVar(&cfg.BatchSize, "batch-size", cfg.BatchSize, "max reroutes per node-fault batch")
	fs.IntVar(&cfg.OracleEvery, "oracle-every", cfg.OracleEvery, "replay-oracle checkpoint every N applied deltas (0 = final only)")
	asJSON := fs.Bool("json", false, "write the full result as JSON to stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := soak.Run(ctx, cfg)
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	fmt.Printf("== soak: %d-flow churn on %d nodes, %d channels, %d-slot frame ==\n",
		res.Flows, res.Nodes, res.Channels, res.HyperSlots)
	fmt.Printf("warmup:     %d admitted, %d infeasible\n", res.WarmupAdmitted, res.WarmupFailed)
	fmt.Printf("ops:        %d driven (%d batches) -> %d deltas applied, %d infeasible, %d skipped\n",
		res.Ops, res.Batches, res.Applied, res.Infeasible, res.Skipped)
	fmt.Printf("mix:        %d adds, %d removes, %d reroutes, %d rebudgets\n",
		res.Adds, res.Removes, res.Reroutes, res.Rebudgets)
	fmt.Printf("ladder:     %d evict, %d cascade, %d full reschedule (%.2f%% of applied)\n",
		res.FallbackEvict, res.FallbackCascade, res.FallbackFull,
		pctOf(res.FallbackEvict+res.FallbackCascade+res.FallbackFull, res.Applied))
	fmt.Printf("oracle:     %d checkpoints, zero drift (digest %s)\n", res.OracleChecks, res.Digest)
	fmt.Printf("heap:       %d KB -> %d KB across the churn phase\n",
		res.HeapStartBytes/1024, res.HeapEndBytes/1024)
	fmt.Printf("end state:  %d active flows, %d scheduled transmissions\n", res.ActiveFlows, res.PlacedTx)
	return nil
}

func pctOf(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
