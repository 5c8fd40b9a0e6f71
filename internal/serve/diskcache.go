// Package serve is the simulation-as-a-service layer: a long-running
// HTTP/JSON daemon (cmd/hmserved) that accepts simulation jobs — single
// RunConfigs, config grids, and named figure reproductions — executes them
// on the experiments worker-pool executor, and serves the results.
//
// Three pieces make it a service rather than a batch tool:
//
//   - a content-addressed persistent disk cache (DiskCache) keyed by the
//     canonical RunConfig sha256, layered under the in-process result
//     cache via pool.Backend, so results survive restarts and are shared
//     across processes;
//   - a bounded job queue with per-job status, idempotent submission by
//     config hash, and graceful drain on shutdown;
//   - observability: /healthz (liveness, build identity, uptime), /metrics
//     (every counter, Prometheus text), and structured request logging.
//
// Because every simulation is a deterministic function of its canonical
// config, a response is bit-identical whether its results were simulated
// fresh, served from the in-memory cache, or loaded from disk.
package serve

import (
	"container/list"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"hetsim/internal/experiments"
)

// DiskCache is a persistent, content-addressed result store implementing
// pool.Backend[experiments.Result]. Each result lives in its own JSON file
// at <dir>/<hash[:2]>/<hash>.json, written temp-then-rename so a reader or
// a crash can never observe a partial file. Total size is capped by
// evicting least-recently-used entries. All methods are safe for
// concurrent use.
//
// The cache is corruption-tolerant: an unreadable or undecodable file is
// treated as a miss, counted, and deleted — the result is simply simulated
// again.
type DiskCache struct {
	dir      string
	maxBytes int64

	mu    sync.Mutex
	index map[string]*list.Element
	lru   *list.List // front = most recently used
	bytes int64

	hits, misses, puts, evictions, loadErrors uint64
}

// diskEntry is one LRU node: a cached key and its file size.
type diskEntry struct {
	key  string
	size int64
}

// DiskCacheStats is a point-in-time snapshot of cache counters.
type DiskCacheStats struct {
	Entries    int    `json:"entries"`
	Bytes      int64  `json:"bytes"`
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	Puts       uint64 `json:"puts"`
	Evictions  uint64 `json:"evictions"`
	LoadErrors uint64 `json:"load_errors"`
}

// OpenDiskCache opens (creating if needed) a disk cache rooted at dir,
// holding at most maxBytes of result files (<= 0 means uncapped). Existing
// entries are indexed by modification time, oldest first in eviction
// order, and stray temp files from a crashed writer are removed.
func OpenDiskCache(dir string, maxBytes int64) (*DiskCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &DiskCache{
		dir:      dir,
		maxBytes: maxBytes,
		index:    make(map[string]*list.Element),
		lru:      list.New(),
	}
	type found struct {
		key   string
		size  int64
		mtime int64
	}
	var entries []found
	err := filepath.WalkDir(dir, func(path string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		name := de.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(path) // leftover from a crashed write; never valid
			return nil
		}
		key, ok := strings.CutSuffix(name, ".json")
		if !ok || !validKey(key) {
			return nil // foreign file; leave it alone
		}
		info, err := de.Info()
		if err != nil {
			return nil
		}
		entries = append(entries, found{key, info.Size(), info.ModTime().UnixNano()})
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].mtime < entries[j].mtime })
	for _, e := range entries {
		// Oldest pushed first ends up at the back: first eviction victim.
		d.index[e.key] = d.lru.PushFront(&diskEntry{e.key, e.size})
		d.bytes += e.size
	}
	return d, nil
}

// validKey accepts the canonical sha256 hex keys the executors produce.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (d *DiskCache) path(key string) string {
	return filepath.Join(d.dir, key[:2], key+".json")
}

// Get loads the result stored under key, implementing pool.Backend.
func (d *DiskCache) Get(key string) (experiments.Result, bool) {
	if !validKey(key) {
		return experiments.Result{}, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	el, ok := d.index[key]
	if !ok {
		d.misses++
		return experiments.Result{}, false
	}
	var res experiments.Result
	b, err := os.ReadFile(d.path(key))
	if err == nil {
		err = json.Unmarshal(b, &res)
	}
	if err != nil {
		d.dropLocked(el)
		d.loadErrors++
		d.misses++
		return experiments.Result{}, false
	}
	d.lru.MoveToFront(el)
	d.hits++
	return res, true
}

// Put stores a result under key, implementing pool.Backend. Best effort:
// on any filesystem error the value is dropped and the cache stays
// consistent.
func (d *DiskCache) Put(key string, val experiments.Result) {
	if !validKey(key) {
		return
	}
	b, err := json.Marshal(val)
	if err != nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.index[key]; ok {
		return // content-addressed: an existing entry is already this value
	}
	path := d.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return
	}
	// Write-temp-then-rename in the destination directory, so the rename
	// is atomic and no reader (or post-crash scan) ever sees a partial
	// result file.
	tmp, err := os.CreateTemp(filepath.Dir(path), "put-*.tmp")
	if err != nil {
		return
	}
	_, werr := tmp.Write(b)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return
	}
	d.index[key] = d.lru.PushFront(&diskEntry{key, int64(len(b))})
	d.bytes += int64(len(b))
	d.puts++
	// Evict least-recently-used entries over the cap, but never the entry
	// just inserted (a single oversized result is stored regardless).
	for d.maxBytes > 0 && d.bytes > d.maxBytes && d.lru.Len() > 1 {
		d.dropLocked(d.lru.Back())
		d.evictions++
	}
}

// dropLocked removes an entry and its file. Caller holds d.mu.
func (d *DiskCache) dropLocked(el *list.Element) {
	e := el.Value.(*diskEntry)
	os.Remove(d.path(e.key))
	d.lru.Remove(el)
	delete(d.index, e.key)
	d.bytes -= e.size
}

// Stats snapshots the cache counters.
func (d *DiskCache) Stats() DiskCacheStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DiskCacheStats{
		Entries:    d.lru.Len(),
		Bytes:      d.bytes,
		Hits:       d.hits,
		Misses:     d.misses,
		Puts:       d.puts,
		Evictions:  d.evictions,
		LoadErrors: d.loadErrors,
	}
}
