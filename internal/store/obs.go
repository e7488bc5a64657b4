package store

import (
	"bionav/internal/obs"
	"bionav/internal/recordlog"
)

// Process-wide store metrics on the default registry
// (docs/OBSERVABILITY.md catalogs them). LoadDataset and Ingest timing go
// through obs.Time so this package never reads the clock directly.
var (
	storeLoads = obs.Default.CounterVec("bionav_store_loads_total",
		"Dataset loads by outcome (ok, error).", "outcome")
	storeLoadSeconds = obs.Default.Histogram("bionav_store_load_seconds",
		"Wall time to load a dataset from disk.",
		obs.ExponentialBuckets(0.01, 4, 6)) // 10ms … ~10s, then +Inf
	tornTables    = recordlog.TornTails.With("table")
	tornIngest    = recordlog.TornTails.With("ingest")
	ingestBatches = obs.Default.CounterVec("bionav_ingest_batches_total",
		"Ingest batches by outcome (ok, error).", "outcome")
	ingestCitations = obs.Default.Counter("bionav_ingest_citations_total",
		"Citations applied by ingest batches (fresh and upserted).")
	ingestSeconds = obs.Default.Histogram("bionav_ingest_seconds",
		"Wall time to apply one ingest batch (log append + snapshot build).",
		obs.ExponentialBuckets(0.0001, 4, 8)) // 100µs … ~1.6s, then +Inf
)
