package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log"
	"sort"
	"strings"

	"repro/internal/auth"
	"repro/internal/schema"
	"repro/internal/store"
)

// Durability seam: every repository state transition flows through
// logged(), which appends a typed record to the configured store
// (internal/store WAL). With no store configured (tests, the bench
// testbed) logged is a nil check and nothing is encoded.
//
// Record taxonomy (one kind per mutation; each payload is the JSON of a
// plain struct, so a record costs its payload and no type descriptors):
//
//	publish           recPublish   — new servable version (full doc + components)
//	metadata          recMetadata  — UpdateMetadata outcome (full updated doc)
//	unpublish         recServable  — repository entry removed
//	deploy            recPlacement — placement added (Deploy/DeployTo/drain migration)
//	undeploy          recPlacement — one placement removed (Undeploy/drain)
//	scale             recPlacement — desired replica count changed
//	drain             recTM        — TM drain mark set
//	rejoin            recTM        — TM drain mark cleared
//	deregister        recTM        — TM removed from the registry
//	autoscale_policy  recPolicyPut — autoscale policy installed/updated
//	tenant_quota      recTenantQuota — tenant quota spec set/replaced
//	tenant_bind       recTenantBind  — identity URN bound to a tenant
//	user              userRecord     — user registration (hash, never
//	                                   the plaintext password)
//
// Deliberately NOT logged (runtime state the service re-learns or that
// is semantically a cache): TM registrations and heartbeats (re-learned
// when sites reconnect), drain marks asserted by heartbeats (the
// original DrainTM was logged; a heartbeat echo is not a transition),
// in-flight/demand counters, result-cache and idempotency entries,
// async task table, and route metrics. Access TOKENS are in this bucket
// too: they are short-lived bearer secrets, so persisting them would
// extend their blast radius past the process lifetime for no benefit —
// after a restart clients simply log in again against the replayed user
// records.
//
// Replay handlers are UPSERTS, not blind re-applications: a checkpoint
// can run between an in-memory mutation and its append, so a tail
// record may describe state the checkpoint already contains. Replaying
// it must converge, not duplicate.
//
// The checkpoint is the same records (persist.go): one per durable fact,
// written by writeCheckpoint and read back by applyRecord like the tail.
//
// Lock discipline: compaction runs writeCheckpoint (which takes the
// repository lock) while holding the store's own lock and blocking
// appends — so logged() must NEVER be called with the repository lock
// held. No call site is inside a repository method or one of its
// callbacks.

const (
	recKindPublish    = "publish"
	recKindMetadata   = "metadata"
	recKindUnpublish  = "unpublish"
	recKindDeploy     = "deploy"
	recKindUndeploy   = "undeploy"
	recKindScale      = "scale"
	recKindDrain      = "drain"
	recKindRejoin     = "rejoin"
	recKindDeregister = "deregister"
	recKindPolicy     = "autoscale_policy"
	recKindTenant     = "tenant_quota"
	recKindTenantBind = "tenant_bind"
	recKindUser       = "user"
)

// recPublish logs a new servable version. Doc is the installed document
// itself and Components its components: both are immutable after
// publish, so the encoder needs no copy.
type recPublish struct {
	Doc        *schema.Document
	Components map[string][]byte
}

// recMetadata logs an UpdateMetadata outcome as the full updated doc —
// simpler and more robust than replaying the edit as a delta.
type recMetadata struct {
	ID  string
	Doc *schema.Document
}

// recServable names a servable (unpublish).
type recServable struct{ ID string }

// recPlacement covers deploy/undeploy/scale: servable, site (empty for
// scale — replicas are per-servable), desired replicas.
type recPlacement struct {
	ID       string
	TM       string
	Replicas int
}

// recTM names a Task Manager (drain/rejoin/deregister).
type recTM struct{ TM string }

// recPolicyPut logs an autoscale-policy put (the raw policy as
// submitted; defaults re-apply on replay exactly as they did on set).
type recPolicyPut struct {
	ID     string
	Policy AutoscalePolicy
}

// recTenantQuota logs a tenant quota put. Replay upserts the registry
// record AND pushes the priority class's dequeue weight to the broker,
// mirroring SetTenantQuota — the recovered fairness lanes must match
// the pre-crash ones.
type recTenantQuota struct {
	ID    string
	Quota auth.Quota
}

// recTenantBind logs an identity→tenant binding.
type recTenantBind struct {
	IdentityID string
	TenantID   string
}

// userRecord is one durable user registration, doubling as the "user"
// WAL payload and the snapshot entry. PasswordHash is the stored
// credential form (auth.HashPassword) — the plaintext never leaves the
// registration handler.
type userRecord struct {
	Provider     string
	Username     string
	PasswordHash string
	FullName     string
	Email        string
}

// logged appends one durable record for an already-applied in-memory
// mutation. Append failures are logged loudly rather than unwound: the
// mutation happened, and failing the caller's request would report an
// operation that in fact succeeded. Callers must not hold the
// repository lock.
func (s *Service) logged(kind string, payload any) {
	st := s.cfg.Store
	if st == nil {
		return
	}
	data, err := json.Marshal(payload)
	if err != nil {
		log.Printf("core: wal: encode %s record: %v", kind, err)
		return
	}
	if err := st.Append(store.Record{Kind: kind, Data: data}); err != nil {
		log.Printf("core: wal: append %s record failed: %v (mutation applied in memory; durability degraded)", kind, err)
	}
}

// decodeRec decodes a record's payload. A record from before JSON records
// has no fallback (a clean shutdown leaves none): the boot is refused.
func decodeRec[T any](data []byte) (T, error) {
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		return v, fmt.Errorf("not a JSON record (a log an older build left behind: start that build on this directory and stop it with SIGTERM, then upgrade): %w", err)
	}
	return v, nil
}

// applyRecord re-applies one WAL record during recovery. The repository
// keeps its index in step record by record; the result cache is flushed
// once, after the whole tail replays. Handlers tolerate state the
// checkpoint already contains (see the taxonomy comment) and state
// referencing since-unpublished servables.
func (s *Service) applyRecord(rec store.Record) error {
	switch rec.Kind {
	case recKindPublish:
		p, err := decodeRec[recPublish](rec.Data)
		if err != nil {
			return err
		}
		doc := p.Doc
		if doc == nil || doc.ID == "" || doc.Version < 1 {
			return fmt.Errorf("core: malformed publish record (seq %d)", rec.Seq)
		}
		s.repo.replayVersion(doc, p.Components)

	case recKindMetadata:
		m, err := decodeRec[recMetadata](rec.Data)
		if err != nil {
			return err
		}
		if m.Doc == nil {
			return fmt.Errorf("core: malformed metadata record (seq %d)", rec.Seq)
		}
		s.repo.replayMetadata(m.ID, m.Doc)

	case recKindUnpublish:
		u, err := decodeRec[recServable](rec.Data)
		if err != nil {
			return err
		}
		// The record is the owner's unpublish; replay it as the owner.
		if doc, ok := s.repo.latest(u.ID); ok {
			s.repo.remove(u.ID, doc.Owner, func() { s.route.dropServable(u.ID) }) //nolint:errcheck — found and owned just above
		}
		s.scaler.removePolicy(u.ID)

	case recKindDeploy:
		d, err := decodeRec[recPlacement](rec.Data)
		if err != nil {
			return err
		}
		s.repo.whilePublished(d.ID, func() { s.route.place(d.ID, d.TM, d.Replicas) })

	case recKindUndeploy:
		d, err := decodeRec[recPlacement](rec.Data)
		if err != nil {
			return err
		}
		s.route.removePlacement(d.ID, d.TM)

	case recKindScale:
		sc, err := decodeRec[recPlacement](rec.Data)
		if err != nil {
			return err
		}
		s.repo.whilePublished(sc.ID, func() { s.route.setReplicas(sc.ID, sc.Replicas) })

	case recKindDrain:
		t, err := decodeRec[recTM](rec.Data)
		if err != nil {
			return err
		}
		s.route.markDraining(t.TM)

	case recKindRejoin:
		t, err := decodeRec[recTM](rec.Data)
		if err != nil {
			return err
		}
		s.route.clearDrainMark(t.TM)

	case recKindDeregister:
		t, err := decodeRec[recTM](rec.Data)
		if err != nil {
			return err
		}
		s.route.deregister(t.TM)

	case recKindPolicy:
		p, err := decodeRec[recPolicyPut](rec.Data)
		if err != nil {
			return err
		}
		if err := s.scaler.setPolicy(p.ID, p.Policy); err != nil {
			return fmt.Errorf("core: replay policy %s: %w", p.ID, err)
		}

	case recKindTenant:
		t, err := decodeRec[recTenantQuota](rec.Data)
		if err != nil {
			return err
		}
		s.tenants.SetQuota(t.ID, t.Quota)
		s.broker.SetLaneWeight(t.ID, auth.PriorityWeight(t.Quota.Priority))

	case recKindTenantBind:
		b, err := decodeRec[recTenantBind](rec.Data)
		if err != nil {
			return err
		}
		s.tenants.Bind(b.IdentityID, b.TenantID)

	case recKindUser:
		u, err := decodeRec[userRecord](rec.Data)
		if err != nil {
			return err
		}
		s.installUser(u)

	default:
		// A newer build's record. Skipping it would lose it for good: the
		// compaction after replay writes a checkpoint without it.
		return fmt.Errorf("core: unknown record kind %q (seq %d), written by a newer build", rec.Kind, rec.Seq)
	}
	return nil
}

// Recover rebuilds state from the configured store: the checkpoint's
// records, then the WAL tail's (torn final record tolerated), both
// through applyRecord, then a cache flush. Call once, right after New and
// before serving traffic. A nil store recovers nothing.
func (s *Service) Recover() (store.RecoveryInfo, error) {
	st := s.cfg.Store
	if st == nil {
		return store.RecoveryInfo{}, nil
	}
	info, err := st.Recover(nil, s.applyRecord)
	if err != nil {
		return info, err
	}
	// Cached results predate the restored repository; the flush also
	// bumps the cache epoch so in-flight computations from the old world
	// cannot write back after the load.
	s.FlushCache()
	return info, nil
}

// Checkpoint forces a store compaction — the clean-shutdown hook, so a
// graceful stop leaves a fresh checkpoint and an empty log. A nil
// store is a no-op.
func (s *Service) Checkpoint() error {
	if s.cfg.Store == nil {
		return nil
	}
	return s.cfg.Store.Checkpoint()
}

// WALStats snapshots the store counters for /api/v2/stats ("wal"
// block); nil when no store is configured.
func (s *Service) WALStats() *store.Stats {
	if s.cfg.Store == nil {
		return nil
	}
	st := s.cfg.Store.Stats()
	return &st
}

// StateFingerprint renders the durable repository state — servables,
// placements, replicas, drain marks, autoscale policies, tenants,
// identity bindings, and user registrations — as a sorted,
// line-oriented string. Two services with equal fingerprints hold the
// same durable state; the bench testbed compares fingerprints across a
// kill-and-recover cycle, and a mismatch diff names the first divergent
// line. Runtime state the WAL deliberately does not cover (TM
// registrations, caches, in-flight counters) is excluded.
func (s *Service) StateFingerprint() string {
	snap := s.captureSnapshot()
	var b strings.Builder
	for _, id := range sortedKeys(snap.Docs) {
		doc := snap.Docs[id]
		fmt.Fprintf(&b, "servable %s v%d type=%s entry=%s versions=%d components=%d\n",
			id, doc.Version, doc.Servable.Type, doc.Servable.Entry,
			len(snap.Versions[id]), len(snap.Components[id]))
	}
	for _, id := range sortedKeys(snap.Placements) {
		tms := append([]string(nil), snap.Placements[id]...)
		sort.Strings(tms)
		fmt.Fprintf(&b, "placement %s -> %s\n", id, strings.Join(tms, ","))
	}
	for _, id := range sortedKeys(snap.Replicas) {
		fmt.Fprintf(&b, "replicas %s = %d\n", id, snap.Replicas[id])
	}
	for _, tm := range snap.Draining {
		fmt.Fprintf(&b, "draining %s\n", tm)
	}
	for _, id := range sortedKeys(snap.Policies) {
		fmt.Fprintf(&b, "policy %s %+v\n", id, snap.Policies[id])
	}
	for _, t := range snap.Tenants {
		fmt.Fprintf(&b, "tenant %s prio=%s mif=%d rate=%g quota=%t\n",
			t.ID, t.Quota.Priority, t.Quota.MaxInFlight, t.Quota.RatePerSec, t.HasQuota)
	}
	for _, id := range sortedKeys(snap.Bindings) {
		fmt.Fprintf(&b, "binding %s -> %s\n", id, snap.Bindings[id])
	}
	for _, key := range sortedKeys(snap.Users) {
		u := snap.Users[key]
		fmt.Fprintf(&b, "user %s cred=%s\n", key, credDigest(u.PasswordHash))
	}
	return b.String()
}

// credDigest folds a stored password hash into a short second-order
// digest for fingerprint lines. Fingerprints end up verbatim in
// test-failure diffs and comparison logs, so the stored hash itself
// (offline-crackable unsalted SHA-256) must not leak into them; eight
// hex chars of sha256(hash) still flag any credential divergence.
func credDigest(storedHash string) string {
	sum := sha256.Sum256([]byte(storedHash))
	return hex.EncodeToString(sum[:4])
}

// sortedKeys returns a map's keys in sorted order, for deterministic
// fingerprint output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
