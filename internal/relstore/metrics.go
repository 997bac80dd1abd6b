package relstore

import "github.com/aigrepro/aig/internal/obs"

// metricInserts counts rows inserted into stored tables. Query results
// and attribute collections are plain values and never reach it.
var metricInserts = obs.Default.NewCounter("aig_relstore_inserts_total",
	"rows inserted into stored tables")

// metricDeletes counts rows removed from in-memory tables — the write
// path incremental view maintenance turns into delete deltas.
var metricDeletes = obs.Default.NewCounter("aig_relstore_deletes_total",
	"rows deleted from in-memory tables")

// metricWALAppends counts records journaled to write-ahead logs.
var metricWALAppends = obs.Default.NewCounter("aig_relstore_wal_appends_total",
	"records appended to write-ahead logs")

// metricWALBytes counts bytes written to write-ahead logs.
var metricWALBytes = obs.Default.NewCounter("aig_relstore_wal_bytes_total",
	"bytes appended to write-ahead logs")

// metricWALFailures counts sticky journal failures: after one, the
// affected database stops accepting mutations.
var metricWALFailures = obs.Default.NewCounter("aig_relstore_wal_failures_total",
	"write-ahead log append/sync failures (sticky per database)")

// metricWALReplayed counts records replayed during recovery.
var metricWALReplayed = obs.Default.NewCounter("aig_relstore_wal_replayed_total",
	"write-ahead log records replayed during recovery")

// metricWALTruncations counts torn tails cut off during recovery.
var metricWALTruncations = obs.Default.NewCounter("aig_relstore_wal_truncations_total",
	"torn write-ahead log tails truncated during recovery")

// metricSnapshots counts completed snapshot + WAL-rotation cycles.
var metricSnapshots = obs.Default.NewCounter("aig_relstore_snapshots_total",
	"completed database snapshots")

// metricSnapshotFailures counts failed snapshot attempts (the previous
// snapshot stays in place; journaling continues unless rotation failed).
var metricSnapshotFailures = obs.Default.NewCounter("aig_relstore_snapshot_failures_total",
	"failed database snapshot attempts")

// metricRecoveries counts successful database recoveries.
var metricRecoveries = obs.Default.NewCounter("aig_relstore_recoveries_total",
	"databases recovered from snapshot + write-ahead log")
