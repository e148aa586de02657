package shard

import (
	"strconv"
	"time"

	"repro/internal/obs"
)

// metrics holds the cluster's per-shard instruments, created once at
// Instrument time so the hot path only increments.
type metrics struct {
	searches []*obs.Counter   // by shard
	degraded []*obs.Counter   // by shard: legs that did not answer "ok"
	latency  []*obs.Histogram // by shard
	partial  *obs.Counter
}

// Instrument registers the cluster's instruments with a registry:
// shard_search_total and shard_degraded_total counters and a
// shard_search_seconds latency histogram, each labeled per shard, a
// cluster-level shard_partial_total counter, and per-shard generation
// and document gauges.
func (c *Cluster) Instrument(reg *obs.Registry) {
	m := &metrics{
		partial: reg.Counter("shard_partial_total",
			"Scatter-gather searches answered from a subset of shards."),
	}
	for _, sl := range c.slots {
		label := obs.Label{Key: "shard", Value: strconv.Itoa(sl.id)}
		m.searches = append(m.searches, reg.Counter("shard_search_total",
			"Scatter-gather search legs by shard.", label))
		m.degraded = append(m.degraded, reg.Counter("shard_degraded_total",
			"Search legs a shard failed to answer (error, timeout, or open breaker).", label))
		m.latency = append(m.latency, reg.Histogram("shard_search_seconds",
			"Per-shard search leg latency in seconds.", nil, label))
		sl := sl
		if sl.remote != nil {
			reg.GaugeFunc("shard_generation",
				"Active generation number by shard (advances on each shard swap).",
				func() float64 {
					if sw := sl.peerStats.Load(); sw != nil {
						return float64(sw.Generation)
					}
					return 0
				}, label)
			reg.GaugeFunc("shard_documents",
				"Documents served by shard.",
				func() float64 {
					if sw := sl.peerStats.Load(); sw != nil {
						return float64(sw.Documents)
					}
					return 0
				}, label)
			continue
		}
		reg.GaugeFunc("shard_generation",
			"Active generation number by shard (advances on each shard swap).",
			func() float64 { return float64(sl.gen.Load().Num) }, label)
		reg.GaugeFunc("shard_documents",
			"Documents served by shard.",
			func() float64 { return float64(sl.gen.Load().corpus.Len()) }, label)
	}
	c.metrics = m
}

// record accounts one finished scatter leg.
func (m *metrics) record(shard int, state string, elapsed time.Duration) {
	if shard < 0 || shard >= len(m.searches) {
		return
	}
	m.searches[shard].Inc()
	if state != "ok" {
		m.degraded[shard].Inc()
	}
	m.latency[shard].Observe(elapsed.Seconds())
}
