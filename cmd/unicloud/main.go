// Command unicloud serves one simulated consumer cloud storage
// service over the RESTful Web API that UniDrive clients speak.
//
// It exists so the full UniDrive stack can be exercised over real
// HTTP: start five unicloud processes on different ports, then point
// cmd/unidrive (or the examples/resthttp program) at them.
//
// Usage:
//
//	unicloud -name dropbox -addr :8081 [-quota 2147483648] [-flaky 0.02]
//
// The store is in-memory and volatile: restarting the process clears
// it.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/cloudhttp"
	"unidrive/internal/cloudsim"
	"unidrive/internal/obs"
	"unidrive/internal/transfer"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "unicloud:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("name", "unicloud", "provider name reported to clients")
	addr := flag.String("addr", ":8080", "listen address")
	quota := flag.Int64("quota", 0, "storage quota in bytes (0 = unlimited)")
	flaky := flag.Float64("flaky", 0, "probability that any API call fails transiently")
	seed := flag.Int64("seed", time.Now().UnixNano(), "seed for failure injection")
	flag.Parse()

	var backend cloud.Interface = cloudsim.NewDirect(cloudsim.NewStore(*name, *quota))
	if *flaky > 0 {
		backend = cloudsim.NewFlaky(backend, *flaky, *seed)
	}
	// Observe the backend's calls in the op table only, so every API
	// call this server executes shows up at /debug/unidrive (and
	// /debug/vars via expvar).
	reg := obs.NewRegistry()
	backend = transfer.Observe(backend, nil, transfer.Config{Obs: reg})
	handler := cloudhttp.NewHandler(backend)
	handler.EnableDebug(reg)
	obs.PublishExpvar("unidrive", reg)
	log.Printf("unicloud %q listening on %s (quota=%d, flaky=%.3f)", *name, *addr, *quota, *flaky)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	return srv.ListenAndServe()
}
