// Command dlhub-server runs the DLHub Management Service: the REST API
// on -http and the ZeroMQ-style task queue on -queue, to which Task
// Managers (cmd/dlhub-taskmanager) connect.
//
// Durability is -data-dir: a write-ahead log, wal.log, plus periodic
// checkpoints, checkpoint.log, both files of the same records
// (internal/store). Every publish/deploy/scale/drain/... is fsynced
// before the API call returns, so kill -9 at any point loses at most
// the single in-flight mutation; boot replays the checkpoint, then the
// log tail. Without the flag state lives in memory only. A directory
// holding repository.gob was written by an older build and is refused
// (docs/OPERATIONS.md).
//
// Authentication is off by default (open mode; the X-DLHub-Tenant
// header may tag tenancy for development). -auth makes bearer tokens
// mandatory: accounts register and log in at /api/v2/auth/*, tenancy
// follows the token's identity, and the header shim is rejected. See
// docs/SECURITY.md and docs/OPERATIONS.md.
//
// Example:
//
//	dlhub-server -http :8080 -queue :7000 -data-dir /var/lib/dlhub -auth
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/auth"
	"repro/internal/core"
	"repro/internal/queue"
	"repro/internal/store"
)

// The server's own resource-server identity and the scope its tokens
// carry — what DLHub registers with Globus Auth ("associated scope for
// programmatic invocation", §IV-D).
const (
	authClientID = "dlhub"
	runScope     = "dlhub:serve"
)

func main() {
	httpAddr := flag.String("http", ":8080", "REST API listen address")
	queueAddr := flag.String("queue", ":7000", "task queue listen address")
	dataDir := flag.String("data-dir", "", "durable store directory: WAL + checkpoints; every mutation survives kill -9")
	walSync := flag.Bool("wal-sync", true, "fsync the WAL after every record (disable to trade the last few mutations for append latency)")
	compactEvery := flag.Int("compact-every", 0, "checkpoint + truncate the WAL after this many records (default 4096; negative disables the record trigger)")
	compactBytes := flag.Int64("compact-bytes", 0, "checkpoint + truncate the WAL once it reaches this many bytes (default 32 MiB; negative disables the byte trigger)")
	noCache := flag.Bool("no-cache", false, "disable the service-layer result cache")
	cacheEntries := flag.Int("cache-entries", 0, "result cache capacity in entries (default 4096)")
	cacheBytes := flag.Int64("cache-bytes", 0, "result cache capacity in result-JSON bytes (default 256 MiB)")
	cacheTTL := flag.Duration("cache-ttl", 0, "result cache entry TTL (default 5m)")
	logRequests := flag.Bool("log-requests", false, "log every HTTP request (method, path, status, latency, request ID)")
	autoscaleInterval := flag.Duration("autoscale-interval", 0, "autoscaler control-loop tick (default 1s)")
	maxQueue := flag.Int("max-queue", 0, "service-wide admission bound: reject runs (429) for a servable once this many are pending (0 = unbounded)")
	taskRetention := flag.Duration("task-retention", 0, "how long finished async tasks stay queryable, counted from when they finished (default 15m, negative retains forever)")
	tmStaleAfter := flag.Duration("tm-stale-after", 15*time.Second, "drop TMs from routing when no heartbeat arrived within this window, and fail over dispatches stuck on them (default 3x the TM heartbeat interval; 0 disables liveness + failover)")
	failoverRetries := flag.Int("failover-retries", 0, "re-dispatch budget per run after its TM misses the liveness window (default 2, negative disables; requires -tm-stale-after)")
	authOn := flag.Bool("auth", false, "require bearer-token authentication: identities register/login via /api/v2/auth, tenancy follows the token, and the X-DLHub-Tenant header is rejected")
	authProvider := flag.String("auth-provider", "local", "identity provider name register/login default to (with -auth)")
	authTokenTTL := flag.Duration("auth-token-ttl", time.Hour, "issued token lifetime (with -auth)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof profiles at /debug/pprof/ on this address (off when empty)")
	flag.Parse()
	if *debugAddr != "" {
		l, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatalf("debug listen: %v", err)
		}
		log.Printf("dlhub-server: profiles at http://%s/debug/pprof/", l.Addr())
		// Only net/http/pprof registers on the default mux.
		go http.Serve(l, nil) //nolint:errcheck — lives as long as the process
	}

	var wal *store.WAL
	if *dataDir != "" {
		var err error
		wal, err = store.Open(store.Options{
			Dir:          *dataDir,
			Sync:         *walSync,
			CompactEvery: *compactEvery,
			CompactBytes: *compactBytes,
		})
		if err != nil {
			log.Fatalf("durable store open: %v", err)
		}
		defer wal.Close()
	}

	cfg := core.Config{
		Cache: core.CacheConfig{
			Disabled:   *noCache,
			MaxEntries: *cacheEntries,
			MaxBytes:   *cacheBytes,
			TTL:        *cacheTTL,
		},
		LogRequests:       *logRequests,
		AutoscaleInterval: *autoscaleInterval,
		MaxQueue:          *maxQueue,
		TaskRetention:     *taskRetention,
		TMStaleAfter:      *tmStaleAfter,
		FailoverRetries:   *failoverRetries,
		Store:             wal,
	}
	if *authOn {
		// The in-process authority plays Globus Auth: the server is its
		// own registered resource server, and login tokens carry the run
		// scope every API call is authorized against. User accounts are
		// durable (WAL + checkpoint); tokens are not — a restart
		// invalidates outstanding bearers and clients log in again.
		as := auth.NewService(*authTokenTTL)
		as.RegisterProvider(*authProvider)
		as.RegisterClient(authClientID, "DLHub Management Service", runScope)
		cfg.Auth = as
		cfg.RequireAuth = true
		cfg.RunScope = runScope
		cfg.AuthClientID = authClientID
		cfg.AuthProvider = *authProvider
	}
	ms := core.New(cfg)
	defer ms.Close()

	if wal != nil {
		info, err := ms.Recover()
		if err != nil {
			log.Fatalf("recovery from %s: %v", *dataDir, err)
		}
		log.Printf("recovered from %s: checkpoint=%v replayed=%d torn_tail_dropped=%v",
			*dataDir, info.CheckpointLoaded, info.Replayed, info.Truncated)
	}

	qsrv := queue.NewServer(ms.Broker())
	ql, err := net.Listen("tcp", *queueAddr)
	if err != nil {
		log.Fatalf("queue listen: %v", err)
	}
	go func() {
		if err := qsrv.Serve(ql); !errors.Is(err, net.ErrClosed) {
			log.Printf("queue server stopped: %v", err)
		}
	}()
	defer qsrv.Close()

	hl, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		log.Fatalf("http listen: %v", err)
	}
	srv := &http.Server{Handler: ms.Handler()}
	go func() {
		if err := srv.Serve(hl); err != http.ErrServerClosed {
			log.Printf("http server stopped: %v", err)
		}
	}()
	defer srv.Close()

	authMode := "open (no auth)"
	if *authOn {
		authMode = "bearer tokens required (provider " + *authProvider + ")"
	}
	fmt.Printf("dlhub-server: REST on %s (/api/v2; %s; health at /api/v2/healthz, /api/v2/readyz), queue on %s\n", hl.Addr(), authMode, ql.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	// Graceful drain: stop accepting, let in-flight requests (and their
	// contexts) finish, then checkpoint.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if wal != nil {
		// Fold the WAL tail into a fresh checkpoint so the next boot
		// restores without replay.
		if err := ms.Checkpoint(); err != nil {
			log.Printf("shutdown checkpoint failed (the WAL still has every record): %v", err)
		} else {
			log.Printf("checkpoint saved to %s", *dataDir)
		}
	}
	fmt.Println("dlhub-server: shutting down")
}
