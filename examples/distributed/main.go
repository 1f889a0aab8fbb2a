// Distributed demo: the full networked MELODY platform in one process —
// an HTTP platform server with a durable write-ahead log, a fleet of
// autonomous worker agents polling and bidding over the API, and a
// requester driving complete runs. The same components power the
// cmd/melody-platform, cmd/melody-worker and cmd/melody-requester binaries
// across machines.
//
// Run with: go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"melody"
	"melody/internal/eventlog"
	"melody/internal/platform"
	"melody/internal/stats"
	"melody/internal/workerpool"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// --- Platform with durable state --------------------------------
	// One tenant: every run opens under the scheduler's default tenant.
	sched, err := melody.NewRunScheduler(melody.SchedulerConfig{
		Auction: melody.AuctionConfig{QualityMin: 1, QualityMax: 10, CostMin: 1, CostMax: 2},
		NewEstimator: func(string) (melody.Estimator, error) {
			return melody.NewQualityTracker(melody.QualityTrackerConfig{
				InitialMean: 5.5, InitialVar: 2.25,
				Params:   melody.QualityParams{A: 1, Gamma: 0.3, Eta: 1},
				EMPeriod: 12, EMWindow: 40,
			})
		},
	})
	if err != nil {
		return err
	}
	walDir, err := os.MkdirTemp("", "melody-demo")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walDir)
	walPath := filepath.Join(walDir, "platform.wal")
	backend, wal, err := eventlog.OpenPersistentScheduler(walPath, sched, eventlog.Options{SyncEveryAppend: true})
	if err != nil {
		return err
	}
	defer wal.Close()

	srv, err := platform.NewMultiServer(backend, nil)
	if err != nil {
		return err
	}
	listener, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := httpSrv.Serve(listener); err != nil && err != http.ErrServerClosed {
			log.Printf("serve: %v", err)
		}
	}()
	defer httpSrv.Close()
	baseURL := "http://" + listener.Addr().String()
	fmt.Printf("platform listening on %s (WAL: %s)\n", baseURL, walPath)

	client, err := platform.NewClient(baseURL, nil)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// --- Worker agents ------------------------------------------------
	r := stats.NewRNG(2026)
	patterns := []workerpool.Pattern{
		workerpool.Rising, workerpool.Declining, workerpool.Fluctuating,
		workerpool.Stable, workerpool.Stable, workerpool.Rising,
	}
	var agents []*platform.WorkerAgent
	for i, pat := range patterns {
		traj, err := workerpool.Generate(r.Split(), workerpool.TrajectoryConfig{
			Pattern: pat, Runs: 12, Lo: 3, Hi: 10, Noise: 0.2,
		})
		if err != nil {
			return err
		}
		id := fmt.Sprintf("agent-%d-%s", i, pat)
		agent, err := platform.NewWorkerAgent(ctx, platform.WorkerAgentConfig{
			Client:    client,
			WorkerID:  id,
			Cost:      r.Uniform(1, 2),
			Frequency: 2,
			LatentQuality: func(run int) float64 {
				idx := run - 1
				if idx < 0 {
					idx = 0
				}
				if idx >= len(traj) {
					idx = len(traj) - 1
				}
				return traj[idx]
			},
			ScoreSigma:   0.4,
			PollInterval: 15 * time.Millisecond,
			RNG:          r.Split(),
		})
		if err != nil {
			return err
		}
		agents = append(agents, agent)
	}
	defer func() {
		for _, a := range agents {
			if err := a.Stop(); err != nil {
				log.Printf("agent stop: %v", err)
			}
		}
	}()
	fmt.Printf("%d worker agents joined\n", len(agents))

	// --- Requester drives ten runs -------------------------------------
	requester, err := platform.NewRequester(platform.RequesterConfig{
		Client: client,
		Tasks: func(run int) []platform.TaskSpec {
			return []platform.TaskSpec{
				{ID: fmt.Sprintf("r%02d-a", run), Threshold: 10},
				{ID: fmt.Sprintf("r%02d-b", run), Threshold: 14},
			}
		},
		Budget:        60,
		BidWait:       250 * time.Millisecond,
		AnswerTimeout: 5 * time.Second,
		ScoreLo:       1, ScoreHi: 10,
	})
	if err != nil {
		return err
	}
	for run := 1; run <= 10; run++ {
		out, err := requester.RunOnce(ctx, run)
		if err != nil {
			return fmt.Errorf("run %d: %w", run, err)
		}
		fmt.Printf("run %2d: %d tasks satisfied, %d assignments, spend %6.2f\n",
			run, len(out.SelectedTasks), len(out.Assignments), out.TotalPayment)
	}

	// --- Final per-worker quality and 3-run forecasts -------------------
	fmt.Println("\nlearned quality, with 3-run-ahead 95% forecast intervals:")
	workers, err := client.Workers(ctx)
	if err != nil {
		return err
	}
	for _, id := range workers {
		q, err := client.Quality(ctx, id)
		if err != nil {
			return err
		}
		f, err := client.Forecast(ctx, id, 3)
		if err != nil {
			return err
		}
		fmt.Printf("  %-22s now %.2f, in 3 runs %.2f [%.2f, %.2f]\n",
			id, q, f.Mean, f.Lo95, f.Hi95)
	}

	events, err := eventlog.ReadAll(walPath)
	if err != nil {
		return err
	}
	fmt.Printf("\nwrite-ahead log holds %d events; a crashed platform replays them to recover\n", len(events))
	return nil
}
