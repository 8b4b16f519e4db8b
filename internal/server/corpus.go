package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"cogdiff/internal/fuzzer"
	"cogdiff/internal/telemetry"
)

// CorpusStore is the server's shared fuzzing corpus: a content-hash-
// deduplicated set of sequence genomes that fuzz jobs (sharedCorpus) and
// HTTP clients (GET/PUT /v1/corpus) feed and drain concurrently.
//
// With a directory configured, every entry persists as its own file,
// seq-<sha256-of-key>.json, written with a temp+rename discipline — a
// crashed or cancelled server leaves only complete
// entries, and concurrent adds of the same entry are idempotent. The
// in-memory index is authoritative between loads; the directory is the
// durable mirror.
type CorpusStore struct {
	dir string

	mu      sync.Mutex
	entries map[string]*fuzzer.Seq // keyed by content hash

	mEntries  *telemetry.Gauge
	mAdded    *telemetry.Counter
	mDupes    *telemetry.Counter
	mRejected *telemetry.Counter
}

// corpusHash is the store's content hash: sha256 over the genome's
// canonical content key (Seq.Key), hex-encoded. Two genomes hash equal
// exactly when the fuzzer would treat them as the same input.
func corpusHash(s *fuzzer.Seq) string {
	sum := sha256.Sum256([]byte(s.Key()))
	return hex.EncodeToString(sum[:])
}

// OpenCorpus opens (and, with a directory, loads) the shared store.
// Files that fail to parse, fail the genome check, or whose name does
// not match their content hash are skipped and counted as rejected —
// one bad file never poisons the store.
func OpenCorpus(dir string, reg *telemetry.Registry) (*CorpusStore, error) {
	st := &CorpusStore{
		dir:       dir,
		entries:   make(map[string]*fuzzer.Seq),
		mEntries:  reg.Gauge(telemetry.MetricServerCorpusEntries),
		mAdded:    reg.Counter(telemetry.MetricServerCorpusAdded),
		mDupes:    reg.Counter(telemetry.MetricServerCorpusDupes),
		mRejected: reg.Counter(telemetry.MetricServerCorpusRejected),
	}
	if dir == "" {
		return st, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("corpus dir: %w", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("corpus dir: %w", err)
	}
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || !strings.HasPrefix(name, "seq-") || !strings.HasSuffix(name, ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			st.mRejected.Inc()
			continue
		}
		seqs, err := fuzzer.UnmarshalCorpus(data)
		if err != nil || len(seqs) != 1 {
			st.mRejected.Inc()
			continue
		}
		h := corpusHash(seqs[0])
		if name != entryFile(h) {
			st.mRejected.Inc()
			continue
		}
		st.entries[h] = seqs[0]
	}
	st.mEntries.Set(int64(len(st.entries)))
	return st, nil
}

func entryFile(hash string) string { return "seq-" + hash + ".json" }

// Add inserts one genome. It reports whether the entry was new;
// duplicates and Check-failing genomes are counted and dropped.
func (st *CorpusStore) Add(s *fuzzer.Seq) bool {
	if s == nil || s.Check() != nil {
		st.mRejected.Inc()
		return false
	}
	h := corpusHash(s)
	st.mu.Lock()
	if _, dup := st.entries[h]; dup {
		st.mu.Unlock()
		st.mDupes.Inc()
		return false
	}
	st.entries[h] = s
	n := len(st.entries)
	st.mu.Unlock()
	st.mAdded.Inc()
	st.mEntries.Set(int64(n))
	st.persist(h, s)
	return true
}

// Merge adds every genome, returning how many were new.
func (st *CorpusStore) Merge(seqs []*fuzzer.Seq) int {
	added := 0
	for _, s := range seqs {
		if st.Add(s) {
			added++
		}
	}
	return added
}

// Snapshot returns the entries sorted by content hash — a deterministic
// order for seeding fuzz jobs and serving GET /v1/corpus.
func (st *CorpusStore) Snapshot() []*fuzzer.Seq {
	st.mu.Lock()
	hashes := make([]string, 0, len(st.entries))
	for h := range st.entries {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	out := make([]*fuzzer.Seq, len(hashes))
	for i, h := range hashes {
		out[i] = st.entries[h]
	}
	st.mu.Unlock()
	return out
}

// Len returns the entry count.
func (st *CorpusStore) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.entries)
}

// persist writes one entry to its content-addressed file via temp+
// rename. Persistence is best-effort: the in-memory store stays
// authoritative, and the entry is re-persisted on the next Add of the
// same content after a restart.
func (st *CorpusStore) persist(hash string, s *fuzzer.Seq) {
	if st.dir == "" {
		return
	}
	data, err := fuzzer.MarshalCorpus([]*fuzzer.Seq{s})
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(st.dir, "tmp-seq-*")
	if err != nil {
		return
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), filepath.Join(st.dir, entryFile(hash))); err != nil {
		os.Remove(tmp.Name())
	}
}
