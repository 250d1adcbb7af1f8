package server

import (
	"crypto/sha256"
	"encoding/hex"

	"wsan/internal/server/storage"
)

// Artifact is one completed job output: a bundle of named JSON documents
// ("parts"). The parts mirror the files the wsansim CLI writes — a schedule
// job's survey.json, workload.json, and schedule.json are byte-identical to
// the gen-schedule artifacts — so anything that consumes the CLI's output
// can consume the daemon's. Storage and retrieval live in the
// internal/server/storage package (see Config.StoreDir and friends).
type Artifact = storage.Artifact

// ArtifactKey derives the content address of a job request: the hex SHA-256
// over the network identity hash, the job kind, and the canonical
// (defaults-applied) parameter encoding. Seeds live inside the canonical
// parameters, so runs that differ only by seed address different artifacts.
func ArtifactKey(networkHash, kind string, canonicalParams []byte) string {
	h := sha256.New()
	h.Write([]byte(networkHash))
	h.Write([]byte{0})
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write(canonicalParams)
	return hex.EncodeToString(h.Sum(nil))
}

// buildStore opens the daemon's artifact store from the Config: memory-only
// without StoreDir, durable (and warm-scanned, so a restarted daemon serves
// its previous artifacts without recomputing) with it. onEvict receives
// every eviction (the daemon forwards them to the event bus).
func buildStore(cfg Config, onEvict func(storage.Eviction)) (*storage.Store, error) {
	return storage.Open(storage.Config{
		Dir:      cfg.StoreDir,
		MaxBytes: cfg.StoreMaxBytes,
		MemBytes: cfg.StoreMemBytes,
		TTL:      cfg.StoreTTL,
		Metrics:  cfg.Metrics,
		OnEvict:  onEvict,
	})
}
