package queue

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// laneLen reports ready messages on one tenant lane of a queue.
func laneLen(b *Broker, queueName, tenant string) int {
	q := b.queue(queueName)
	q.mu.Lock()
	defer q.mu.Unlock()
	if ln, ok := q.lanes[tenant]; ok {
		return ln.ready.Len()
	}
	return 0
}

// The DRR fairness contract, pinned: a queue striped into per-tenant
// lanes serves each backlogged lane in proportion to its weight, a
// flood from one tenant deepens only its own lane, and a queue that
// only ever sees one lane behaves exactly like the old single FIFO.

// TestSingleLaneIsFIFO: untagged pushes (the whole pre-tenancy data
// plane) must come back in exact push order — byte-identical behavior
// to the single ready-list broker.
func TestSingleLaneIsFIFO(t *testing.T) {
	b := NewBroker(time.Minute)
	defer b.Close()
	const n = 100
	for i := 0; i < n; i++ {
		b.Push("q", []byte{byte(i)}, "", "", "")
	}
	for i := 0; i < n; i++ {
		msg, ok := b.Pull("q", 0)
		if !ok {
			t.Fatalf("pull %d: queue empty", i)
		}
		if msg.Body[0] != byte(i) {
			t.Fatalf("pull %d: got %d — single-lane order must be FIFO", i, msg.Body[0])
		}
		b.Ack("q", msg.ID)
	}
}

// TestDRRWeightedShares: with every lane permanently backlogged, one
// full rotation serves exactly weight_i messages from lane i — so over
// k rotations the dequeue counts are in exact 4:2:1 proportion for
// high:normal:low priority weights.
func TestDRRWeightedShares(t *testing.T) {
	b := NewBroker(time.Minute)
	defer b.Close()
	b.SetLaneWeight("high", 4)
	b.SetLaneWeight("normal", 2)
	b.SetLaneWeight("low", 1)

	const perTenant = 400
	for i := 0; i < perTenant; i++ {
		for _, tenant := range []string{"high", "normal", "low"} {
			b.Push("q", []byte(tenant), "", "", tenant)
		}
	}
	// Pull 7 rotations' worth (4+2+1 per rotation) — all lanes stay
	// backlogged throughout, so the shares must be exact.
	counts := map[string]int{}
	const rotations = 7
	for i := 0; i < rotations*7; i++ {
		msg, ok := b.Pull("q", 0)
		if !ok {
			t.Fatalf("pull %d: queue empty", i)
		}
		counts[msg.Tenant]++
		b.Ack("q", msg.ID)
	}
	if counts["high"] != 4*rotations || counts["normal"] != 2*rotations || counts["low"] != rotations {
		t.Fatalf("dequeue shares = %v, want exact 4:2:1 (%d:%d:%d)",
			counts, 4*rotations, 2*rotations, rotations)
	}
}

// TestFairnessHotTenantCannotStarve is the flood property: a hot tenant
// holding a 10x-deeper backlog must not delay an equal-weight quiet
// tenant's messages beyond its own share of the rotation. Every quiet-
// tenant message must surface within a handful of pulls of its turn —
// bounded by the hot lane's weight, never by the hot lane's depth.
func TestFairnessHotTenantCannotStarve(t *testing.T) {
	b := NewBroker(time.Minute)
	defer b.Close()
	// Hot gets the HIGHEST weight the system hands out; the property
	// must hold even then, because the bound is the weight (4), not the
	// backlog (10x).
	b.SetLaneWeight("hot", 4)
	b.SetLaneWeight("bg", 1)

	const bgMsgs = 50
	for i := 0; i < bgMsgs*10; i++ {
		b.Push("q", []byte("hot"), "", "", "hot")
	}
	for i := 0; i < bgMsgs; i++ {
		b.Push("q", []byte("bg"), "", "", "bg")
	}

	// maxGap is the worst-case pulls between consecutive bg deliveries:
	// one full hot quantum (4) + the bg message itself.
	const maxGap = 5
	sinceBG := 0
	served := 0
	for served < bgMsgs {
		msg, ok := b.Pull("q", 0)
		if !ok {
			t.Fatal("queue empty before all bg messages served")
		}
		b.Ack("q", msg.ID)
		if msg.Tenant == "bg" {
			served++
			sinceBG = 0
			continue
		}
		sinceBG++
		if sinceBG > maxGap {
			t.Fatalf("bg tenant starved: %d consecutive hot deliveries (bound %d) after %d bg served",
				sinceBG, maxGap, served)
		}
	}
}

// TestDRRPropertyRandomized is the generative check: random tenant
// mixes, weights, and interleavings must (a) never lose or duplicate a
// message, (b) keep each lane itself FIFO, and (c) never let any
// backlogged lane go unserved for more than a full rotation's worth of
// pulls (sum of all weights).
func TestDRRPropertyRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		b := NewBroker(time.Minute)
		tenants := make([]string, 2+rng.Intn(4)) // 2..5 lanes
		weightSum := 0
		for i := range tenants {
			tenants[i] = fmt.Sprintf("t%d", i)
			w := 1 + rng.Intn(4)
			weightSum += w
			b.SetLaneWeight(tenants[i], w)
		}
		// Random per-tenant volumes, interleaved pushes.
		total := 0
		seq := map[string]int{}
		var pushes []string
		for _, tenant := range tenants {
			n := 1 + rng.Intn(200)
			total += n
			for i := 0; i < n; i++ {
				pushes = append(pushes, tenant)
			}
		}
		rng.Shuffle(len(pushes), func(i, j int) { pushes[i], pushes[j] = pushes[j], pushes[i] })
		for _, tenant := range pushes {
			b.Push("q", []byte(fmt.Sprintf("%s/%d", tenant, seq[tenant])), "", "", tenant)
			seq[tenant]++
		}

		nextSeq := map[string]int{}
		unserved := map[string]int{} // pulls since a backlogged lane was last served
		for i := 0; i < total; i++ {
			msg, ok := b.Pull("q", 0)
			if !ok {
				t.Fatalf("trial %d: queue empty after %d of %d pulls", trial, i, total)
			}
			b.Ack("q", msg.ID)
			want := fmt.Sprintf("%s/%d", msg.Tenant, nextSeq[msg.Tenant])
			if string(msg.Body) != want {
				t.Fatalf("trial %d: lane %s out of order: got %s, want %s", trial, msg.Tenant, msg.Body, want)
			}
			nextSeq[msg.Tenant]++
			for _, tenant := range tenants {
				if tenant == msg.Tenant || laneLen(b, "q", tenant) == 0 {
					unserved[tenant] = 0
					continue
				}
				unserved[tenant]++
				if unserved[tenant] > weightSum {
					t.Fatalf("trial %d: backlogged lane %s unserved for %d pulls (rotation is %d)",
						trial, tenant, unserved[tenant], weightSum)
				}
			}
		}
		if got := b.Len("q"); got != 0 {
			t.Fatalf("trial %d: %d messages left after draining", trial, got)
		}
		b.Close()
	}
}

// TestNackReturnsToOwnLane: a redelivered message must rejoin its own
// tenant's lane, not the default one.
func TestNackReturnsToOwnLane(t *testing.T) {
	b := NewBroker(time.Minute)
	defer b.Close()
	b.Push("q", []byte("x"), "", "", "acme")
	msg, ok := b.Pull("q", 0)
	if !ok || msg.Tenant != "acme" {
		t.Fatalf("pull = %+v, %v", msg, ok)
	}
	b.Nack("q", msg.ID)
	if got := laneLen(b, "q", "acme"); got != 1 {
		t.Fatalf("after nack: acme lane has %d messages, want 1", got)
	}
	if got := laneLen(b, "q", ""); got != 0 {
		t.Fatalf("after nack: default lane has %d messages, want 0", got)
	}
	msg2, ok := b.Pull("q", 0)
	if !ok || msg2.Tenant != "acme" || msg2.Attempt != 2 {
		t.Fatalf("redelivery = %+v, %v; want acme attempt 2", msg2, ok)
	}
	b.Ack("q", msg2.ID)
}

// --- fairness benchmarks -----------------------------------------------------
// CI's bench job runs these with -benchmem: the DRR dequeue must stay
// allocation-comparable to the old single-FIFO pop.

func BenchmarkDRRSingleLane(b *testing.B) {
	br := NewBroker(time.Minute)
	defer br.Close()
	body := []byte("x")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Push("bench", body, "", "", "")
		msg, _ := br.Pull("bench", 0)
		br.Ack("bench", msg.ID)
	}
}

func BenchmarkDRREightLanes(b *testing.B) {
	br := NewBroker(time.Minute)
	defer br.Close()
	tenants := make([]string, 8)
	for i := range tenants {
		tenants[i] = fmt.Sprintf("t%d", i)
		br.SetLaneWeight(tenants[i], 1+i%4)
	}
	body := []byte("x")
	// Keep every lane backlogged so the rotation is always live.
	for _, tenant := range tenants {
		for i := 0; i < 64; i++ {
			br.Push("bench", body, "", "", tenant)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Push("bench", body, "", "", tenants[i%len(tenants)])
		msg, _ := br.Pull("bench", 0)
		br.Ack("bench", msg.ID)
	}
}
