package serve

import (
	"fmt"
	"testing"
)

// BenchmarkFairDequeue measures the deficit-round-robin scheduler's
// enqueue+dequeue hot path as the tenant count scales (1 vs 8 vs 64),
// with every tenant backlogged for the whole run. jobs/s is the
// scheduling throughput the gate tracks; spreadx is max/min jobs
// served across tenants over the run (1.0 = perfectly fair shares)
// and is informational — fairness correctness is pinned by the
// property tests in sched_test.go.
func BenchmarkFairDequeue(b *testing.B) {
	const perTenant = 64
	for _, tenants := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("tenants=%d", tenants), func(b *testing.B) {
			clock := newFakeClock()
			s := newScheduler(tenants*perTenant+1, clock.now, nil, nil)
			ids := make([]string, tenants)
			for i := range ids {
				ids[i] = fmt.Sprintf("t%02d", i)
				for j := 0; j < perTenant; j++ {
					if err := s.admit(ids[i], ClassInteractive, &job{id: ids[i]}, false); err != nil {
						b.Fatal(err)
					}
				}
			}
			served := make(map[string]int, tenants)
			// Each op runs several full DRR rounds, re-enqueueing every
			// served job so all tenants stay backlogged and one op is a
			// meaningful slice of scheduling work even at -benchtime=1x.
			rounds := tenants * 256
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for i := 0; i < rounds; i++ {
					s.mu.Lock()
					j := s.popLocked()
					s.mu.Unlock()
					if j == nil {
						b.Fatal("scheduler empty mid-run")
					}
					served[j.id]++
					if err := s.admit(j.id, ClassInteractive, j, false); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			jobs := float64(b.N) * float64(rounds)
			b.ReportMetric(jobs/b.Elapsed().Seconds(), "jobs/s")
			minServed, maxServed := -1, 0
			for _, n := range served {
				if minServed < 0 || n < minServed {
					minServed = n
				}
				if n > maxServed {
					maxServed = n
				}
			}
			if minServed > 0 {
				b.ReportMetric(float64(maxServed)/float64(minServed), "spreadx")
			}
		})
	}
}
