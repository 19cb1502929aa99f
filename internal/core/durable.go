package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/auth"
	"repro/internal/schema"
	"repro/internal/store"
)

// Durability seam: every durable state change goes through commit,
// which checks the change against current state, encodes its record,
// appends it to the configured store (internal/store WAL) and only then
// applies it, through the one apply function of its kind — the same
// function WAL replay (applyRecord) calls. With no store configured
// (tests, the bench testbed) commit checks and applies, and encodes
// nothing.
//
// Record taxonomy (one kind per mutation; each payload is the JSON of a
// plain struct, so a record costs its payload and no type descriptors),
// with the Service methods that commit it:
//
//	publish           recPublish     — Publish: a new servable version (doc + components)
//	metadata          recMetadata    — UpdateMetadata: the full edited doc
//	unpublish         recServable    — Unpublish: entry, routing and policy removed
//	deploy            recPlacement   — Deploy/DeployTo, drain migration: placement added
//	undeploy          recPlacement   — Undeploy, DrainTM: one placement removed
//	scale             recPlacement   — Scale, the autoscaler: desired replica count
//	drain             recTM          — DrainTM: drain mark set
//	rejoin            recTM          — RejoinTM: drain mark cleared
//	deregister        recTM          — DeregisterTM: TM removed from the registry
//	autoscale_policy  recPolicyPut   — SetAutoscalePolicy
//	tenant_quota      recTenantQuota — SetTenantQuota
//	tenant_bind       recTenantBind  — BindTenant, RegisterUser
//	user              userRecord     — RegisterUser (hash, never the plaintext password)
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
// The checkpoint is the same records (persist.go): one per durable fact,
// written by writeCheckpoint and read back by applyRecord like the tail.
//
// Lock order: commitMu → the WAL's lock → {repository.mu, rt.mu,
// autoscaler.mu, the tenant registry, userMu}. commitMu is outermost —
// nothing else is held when it is taken — so no other durable change
// moves the state a check read before its apply runs. The result
// cache's and the idempotency store's locks are leaves, taken with no
// other lock held: a cache invalidation runs after its commit returns. The WAL runs
// apply under its own lock, as it runs the checkpoint hook, so a
// checkpoint holds the state of exactly the records it replaces. An
// apply only sets state, never adds to it, and never commits.

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

// recTenantQuota logs a tenant quota put.
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

// commit is the one write path for durable state. Under commitMu, check
// tests the change against current state and returns the record's
// payload; an error refuses the change, and a nil payload means the
// state already says so. The payload is encoded and appended, and only
// once the store holds it does apply run. A refusal, a payload that does
// not encode (internal) or a failed append (unavailable) changes nothing.
// Side effects that are not durable state — cache invalidation,
// teardown tasks, queue purges — are the caller's, after commit returns.
func (s *Service) commit(kind string, check func() (any, error), apply func()) error {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	payload, err := check()
	if err != nil || payload == nil {
		return err
	}
	if s.cfg.Store == nil {
		apply()
		return nil
	}
	data, err := json.Marshal(payload)
	if err != nil {
		return ErrInternal.WithDetail(fmt.Sprintf("encode %s record: %v", kind, err))
	}
	if err := s.cfg.Store.Commit(store.Record{Kind: kind, Data: data}, apply); err != nil {
		return ErrUnavailable.WithDetail(err.Error())
	}
	return nil
}

// applyRecord re-applies one WAL record during recovery, through the
// apply function commit ran for it. The repository keeps its index in
// step record by record.
func (s *Service) applyRecord(rec store.Record) error {
	replay, ok := replays[rec.Kind]
	if !ok {
		// A newer build's record. Skipping it would lose it for good: the
		// compaction after replay writes a checkpoint without it.
		return fmt.Errorf("core: unknown record kind %q (seq %d), written by a newer build", rec.Kind, rec.Seq)
	}
	return replay(s, rec)
}

// replays maps each record kind to its replay: a decode of the payload
// and a call of the kind's apply.
var replays = map[string]func(*Service, store.Record) error{
	recKindPublish:    replayer((*Service).applyPublish),
	recKindMetadata:   replayer((*Service).applyMetadata),
	recKindUnpublish:  replayer((*Service).applyUnpublish),
	recKindDeploy:     replayer((*Service).applyDeploy),
	recKindUndeploy:   replayer((*Service).applyUndeploy),
	recKindScale:      replayer((*Service).applyScale),
	recKindDrain:      replayer((*Service).applyDrain),
	recKindRejoin:     replayer((*Service).applyRejoin),
	recKindDeregister: replayer((*Service).applyDeregister),
	recKindPolicy:     replayer((*Service).applyPolicy),
	recKindTenant:     replayer((*Service).applyTenantQuota),
	recKindTenantBind: replayer((*Service).applyTenantBind),
	recKindUser:       replayer((*Service).applyUser),
}

// replayer makes the replay of one kind. A payload type with a valid
// method refuses a record its apply cannot take. A record from before
// JSON records has no fallback (a clean shutdown leaves none): the boot
// is refused.
func replayer[T any](apply func(*Service, T)) func(*Service, store.Record) error {
	return func(s *Service, rec store.Record) error {
		var v T
		if err := json.Unmarshal(rec.Data, &v); err != nil {
			return fmt.Errorf("not a JSON record (a log an older build left behind: start that build on this directory and stop it with SIGTERM, then upgrade): %w", err)
		}
		if p, ok := any(&v).(interface{ valid() error }); ok {
			if err := p.valid(); err != nil {
				return fmt.Errorf("core: malformed %s record (seq %d): %w", rec.Kind, rec.Seq, err)
			}
		}
		apply(s, v)
		return nil
	}
}

func (p *recPublish) valid() error {
	if p.Doc == nil || p.Doc.ID == "" || p.Doc.Version < 1 {
		return errors.New("no document, ID or version")
	}
	return nil
}

func (m *recMetadata) valid() error {
	if m.Doc == nil {
		return errors.New("no document")
	}
	return nil
}

func (p *recPolicyPut) valid() error { return p.Policy.validate() }

// --- one apply per record kind: commit and applyRecord both end here ---

func (s *Service) applyPublish(p recPublish) { s.repo.put(p.Doc, p.Components) }

func (s *Service) applyMetadata(m recMetadata) { s.repo.setLatest(m.ID, m.Doc) }

// applyUnpublish drops the servable and what must not outlive it: its
// placements, replica record and autoscale policy.
func (s *Service) applyUnpublish(u recServable) {
	s.repo.remove(u.ID)
	s.route.dropServable(u.ID)
	s.scaler.removePolicy(u.ID)
}

// applyDeploy and applyScale skip a servable that is not published: a
// log an older build wrote may name one after its unpublish record.
func (s *Service) applyDeploy(d recPlacement) {
	if _, ok := s.repo.latest(d.ID); ok {
		s.route.place(d.ID, d.TM, d.Replicas)
	}
}

func (s *Service) applyScale(d recPlacement) {
	if _, ok := s.repo.latest(d.ID); ok {
		s.route.setReplicas(d.ID, d.Replicas)
	}
}

func (s *Service) applyUndeploy(d recPlacement) { s.route.removePlacement(d.ID, d.TM) }

func (s *Service) applyDrain(t recTM) { s.route.markDraining(t.TM) }

func (s *Service) applyRejoin(t recTM) { s.route.clearDrainMark(t.TM) }

func (s *Service) applyDeregister(t recTM) { s.route.deregister(t.TM) }

func (s *Service) applyPolicy(p recPolicyPut) { s.scaler.setPolicy(p.ID, p.Policy) }

// applyTenantQuota also pushes the priority class's dequeue weight to
// the broker: the recovered fairness lanes must match the pre-crash ones.
func (s *Service) applyTenantQuota(t recTenantQuota) {
	s.tenants.SetQuota(t.ID, t.Quota)
	s.broker.SetLaneWeight(t.ID, auth.PriorityWeight(t.Quota.Priority))
}

func (s *Service) applyTenantBind(b recTenantBind) { s.tenants.Bind(b.IdentityID, b.TenantID) }

// applyUser keeps the account in the service's table and mirrors it into
// the configured auth service. With no auth service configured the
// record is still kept, so a later boot WITH -auth inherits the accounts.
func (s *Service) applyUser(u userRecord) {
	s.userMu.Lock()
	s.users[u.Provider+"/"+u.Username] = u
	s.userMu.Unlock()
	if s.cfg.Auth != nil {
		s.cfg.Auth.RegisterUserHashed(u.Provider, u.Username, u.PasswordHash, u.FullName, u.Email)
	}
}

// Recover rebuilds state from the configured store: the checkpoint's
// records, then the WAL tail's (torn final record tolerated), both
// through applyRecord. Call once, right after New and before serving
// traffic. Until it has run the store refuses every commit, so nothing is
// published, run or cached from a state the restore replaces. A nil
// store recovers nothing.
func (s *Service) Recover() (store.RecoveryInfo, error) {
	if s.cfg.Store == nil {
		return store.RecoveryInfo{}, nil
	}
	return s.cfg.Store.Recover(nil, s.applyRecord)
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

// walErr is why the store would refuse a commit now (nil with no store,
// and while it takes writes); while it is set /api/v2/readyz is red.
func (s *Service) walErr() error {
	if s.cfg.Store == nil {
		return nil
	}
	return s.cfg.Store.Err()
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
// registrations, caches, in-flight counters) is excluded. It holds
// commitMu, so it never reads half of a change.
func (s *Service) StateFingerprint() string {
	s.commitMu.Lock()
	snap := s.captureSnapshot()
	s.commitMu.Unlock()
	var b strings.Builder
	for _, id := range sortedKeys(snap.Versions) {
		doc := snap.Versions[id][len(snap.Versions[id])-1]
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
