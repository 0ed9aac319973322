// Command realserve runs the plan service: an HTTP/JSON frontend over one
// shared realhf.Planner session. Identical concurrent requests are
// coalesced into a single solve, plan and cost caches are shared across
// tenants while per-tenant calibration stays isolated, and a bounded
// admission queue answers overload with 429 + Retry-After instead of
// queueing unboundedly. SIGINT/SIGTERM drains gracefully: in-flight solves
// finish (up to -drain-timeout), new requests get 503.
//
// Usage:
//
//	realserve -addr :7799 -nodes 4
//	realserve -addr 127.0.0.1:7799 -max-solves 4 -queue-depth 32
//
//	curl -s localhost:7799/v1/plan -d '{"algo":"ppo","actor_type":"llama7b","critic_type":"llama7b-critic","config":{"batch_size":256}}'
//	curl -s localhost:7799/v1/stats
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"realhf"
	"realhf/internal/serve"
)

// readHeaderTimeout is the per-connection budget for reading request
// headers.
const readHeaderTimeout = 10 * time.Second

func main() {
	os.Exit(run())
}

func run() int {
	log.SetFlags(0)
	addr := flag.String("addr", "127.0.0.1:7799", "listen address")
	nodes := flag.Int("nodes", 2, "default cluster size in 8-GPU nodes for requests that set none")
	gpusPerNode := flag.Int("gpus-per-node", 8, "GPUs per node")
	planCache := flag.Int("plan-cache", 0, "plan cache entries (0 = library default)")
	problemCache := flag.Int("problem-cache", 0, "per-problem cost cache entries (0 = library default)")
	maxSolves := flag.Int("max-solves", 2, "solves running concurrently")
	queueDepth := flag.Int("queue-depth", 16, "admitted solves allowed to wait for a slot before 429")
	defaultDeadline := flag.Duration("default-deadline", 60*time.Second, "deadline for requests that send no deadline_ms")
	maxDeadline := flag.Duration("max-deadline", 5*time.Minute, "cap on client-supplied deadlines")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight solves before canceling them")
	flag.Parse()

	planner := realhf.NewPlanner(realhf.ClusterConfig{
		Nodes:               *nodes,
		GPUsPerNode:         *gpusPerNode,
		PlanCacheEntries:    *planCache,
		ProblemCacheEntries: *problemCache,
	})
	srv, err := serve.New(serve.Config{
		Planner:             planner,
		MaxConcurrentSolves: *maxSolves,
		QueueDepth:          *queueDepth,
		DefaultDeadline:     *defaultDeadline,
		MaxDeadline:         *maxDeadline,
	})
	if err != nil {
		log.Print(err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Print(err)
		return 1
	}
	// ReadHeaderTimeout bounds how long a client may trickle request
	// headers, so a slow client cannot hold a connection open forever.
	// Bodies and solves are bounded separately (request deadlines).
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: readHeaderTimeout}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	log.Printf("realserve: listening on http://%s (nodes=%d gpus/node=%d max-solves=%d queue-depth=%d)",
		ln.Addr(), *nodes, *gpusPerNode, *maxSolves, *queueDepth)

	select {
	case sig := <-sigs:
		log.Printf("realserve: %v received, draining (timeout %v)", sig, *drainTimeout)
	case err := <-errCh:
		log.Printf("realserve: serve: %v", err)
		return 1
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("realserve: drain timed out, in-flight solves canceled: %v", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		httpSrv.Close()
	}
	log.Print("realserve: drained, bye")
	return 0
}
