package catalog

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"repro/internal/relation"
)

// Sentinel errors the serving layer maps to HTTP statuses.
var (
	// ErrNotFound reports a dataset name the catalog does not hold.
	ErrNotFound = errors.New("catalog: dataset not found")
	// ErrExists reports a Create colliding with an existing dataset name
	// or alias.
	ErrExists = errors.New("catalog: dataset already exists")
)

// File names inside each dataset directory.
const (
	manifestFile = "manifest.json"
	dataFile     = "data.csv"
	snapshotFile = "snapshot.bin"
)

// Catalog manages the datasets under one data directory. All methods are
// safe for concurrent use: the catalog-wide mutex guards the name/alias
// maps, and per-dataset file operations (create, delete, append,
// snapshot writes) serialize on a per-name lock so concurrent admin calls
// for different datasets never block each other.
type Catalog struct {
	dir string

	mu      sync.RWMutex
	byName  map[string]Manifest
	byAlias map[string]string      // alias -> canonical name
	locks   map[string]*sync.Mutex // per-dataset file-operation locks
}

// Open scans dir (creating it if missing) and returns the catalog over
// it. Dataset subdirectories with unreadable or invalid manifests fail
// the open — an operator typo should surface at startup, not as a 404
// later — as do alias collisions between datasets.
func Open(dir string) (*Catalog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("catalog: creating data dir: %w", err)
	}
	c := &Catalog{
		dir:     dir,
		byName:  make(map[string]Manifest),
		byAlias: make(map[string]string),
		locks:   make(map[string]*sync.Mutex),
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("catalog: scanning data dir: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() || !ValidName(e.Name()) || e.Name() == JobsDirName {
			// Temp staging dirs (".tmp-*"), trash, stray files, and the
			// reserved async-job directory are not datasets.
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name(), manifestFile))
		if err != nil {
			return nil, fmt.Errorf("catalog: dataset %q: %w", e.Name(), err)
		}
		m, err := ParseManifest(data)
		if err != nil {
			return nil, fmt.Errorf("catalog: dataset %q: %w", e.Name(), err)
		}
		if m.Name != e.Name() {
			return nil, fmt.Errorf("catalog: directory %q holds manifest for %q", e.Name(), m.Name)
		}
		if err := c.registerLocked(m); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// registerLocked adds a manifest to the name/alias maps, rejecting
// collisions. Callers hold mu (or have exclusive access during Open).
func (c *Catalog) registerLocked(m Manifest) error {
	if m.Name == JobsDirName {
		return fmt.Errorf("catalog: %q is reserved for the async-job store", m.Name)
	}
	for _, a := range m.Aliases {
		if a == JobsDirName {
			return fmt.Errorf("catalog: alias %q is reserved for the async-job store", a)
		}
	}
	if _, ok := c.byName[m.Name]; ok {
		return fmt.Errorf("%w: %q", ErrExists, m.Name)
	}
	if owner, ok := c.byAlias[m.Name]; ok {
		return fmt.Errorf("%w: %q is an alias of %q", ErrExists, m.Name, owner)
	}
	for _, a := range m.Aliases {
		if _, ok := c.byName[a]; ok {
			return fmt.Errorf("%w: alias %q collides with dataset %q", ErrExists, a, a)
		}
		if owner, ok := c.byAlias[a]; ok {
			return fmt.Errorf("%w: alias %q collides with an alias of %q", ErrExists, a, owner)
		}
	}
	c.byName[m.Name] = m
	for _, a := range m.Aliases {
		c.byAlias[a] = m.Name
	}
	return nil
}

// Dir returns the catalog's data directory.
func (c *Catalog) Dir() string { return c.dir }

// Names returns the canonical dataset names, sorted.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.byName))
	for n := range c.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Manifest returns the manifest of the named dataset (canonical name, not
// an alias).
func (c *Catalog) Manifest(name string) (Manifest, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.byName[name]
	return m, ok
}

// Resolve maps a request name — canonical or alias — to the canonical
// dataset name.
func (c *Catalog) Resolve(name string) (string, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if _, ok := c.byName[name]; ok {
		return name, true
	}
	if canon, ok := c.byAlias[name]; ok {
		return canon, true
	}
	return "", false
}

// lockFor returns the per-dataset file-operation lock, creating it on
// first use. The lock outlives dataset deletion so a concurrent append
// and delete still serialize.
func (c *Catalog) lockFor(name string) *sync.Mutex {
	c.mu.Lock()
	defer c.mu.Unlock()
	l, ok := c.locks[name]
	if !ok {
		l = &sync.Mutex{}
		c.locks[name] = l
	}
	return l
}

// path returns the dataset's directory.
func (c *Catalog) path(name string) string { return filepath.Join(c.dir, name) }

// finiteMeasure rejects a relation whose measure column holds a NaN or
// ±Inf. Such a value poisons every aggregate and score it enters (a NaN
// difference score hides the slices around it) and cannot be encoded in
// a JSON answer. Lines are numbered as ReadCSV's errors number them: the
// header is line 1 and each record the next line. Range-bin source
// columns are not checked — a NaN there falls into its own bin.
func finiteMeasure(rel *relation.Relation, col string) error {
	mi := rel.MeasureIndex(col)
	for row := 0; row < rel.NumRows(); row++ {
		if v := rel.MeasureValue(mi, row); math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("catalog: CSV line %d, column %q: measure %v is not finite", row+2, col, v)
		}
	}
	return nil
}

// Create validates the manifest, parses the CSV through it (the parse IS
// the validation: unknown columns, bad numerics, and inconsistent rows
// all fail here, before anything touches disk), and writes the dataset
// atomically: the manifest and a normalized CSV (time column first, then
// dimensions, then the measure — the column order AppendRows persists to)
// are staged in a temp directory and renamed into place. The stored
// manifest records the range-bin edges fitted here; a manifest that
// already carries edges is refused. It returns the parsed relation so the
// caller can publish the dataset without re-reading the file it just
// wrote.
func (c *Catalog) Create(m Manifest, csvSrc io.Reader) (*relation.Relation, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	for i := range m.RangeBins {
		if m.RangeBins[i].Edges != nil {
			return nil, fmt.Errorf("catalog: rangeBins column %q sets edges; the catalog fits and records them at upload", m.RangeBins[i].Column)
		}
	}
	rel, err := relation.ReadCSV(csvSrc, m.Spec())
	if err != nil {
		return nil, err
	}
	if err := finiteMeasure(rel, m.MeasureCol); err != nil {
		return nil, err
	}
	if rel.NumTimestamps() < 2 {
		return nil, fmt.Errorf("catalog: dataset %q has %d distinct time values, need at least 2", m.Name, rel.NumTimestamps())
	}
	// Derived columns (hierarchies, range bins) validate against the real
	// data here — a path column that is not a single-parent taxonomy
	// fails the upload before anything touches disk; a constant range-bin
	// source derives a single bin. Only base columns persist; loads
	// re-derive, binning against the edges fitted here, which the stored
	// manifest records. RangeBins is copied first so that recording them
	// leaves the caller's manifest alone.
	if err := m.ApplyDerived(rel); err != nil {
		return nil, err
	}
	m.RangeBins = append([]RangeBinSpec(nil), m.RangeBins...)
	for i := range m.RangeBins {
		edges := rel.RangeBinEdges(m.RangeBins[i].EffectiveAs())
		m.RangeBins[i].Edges = &edges
	}

	lock := c.lockFor(m.Name)
	lock.Lock()
	defer lock.Unlock()

	// Reserve the name and aliases before touching disk; undo on failure.
	c.mu.Lock()
	if err := c.registerLocked(m); err != nil {
		c.mu.Unlock()
		return nil, err
	}
	c.mu.Unlock()
	unregister := func() {
		c.mu.Lock()
		delete(c.byName, m.Name)
		for _, a := range m.Aliases {
			delete(c.byAlias, a)
		}
		c.mu.Unlock()
	}

	if _, err := os.Stat(c.path(m.Name)); err == nil {
		unregister()
		return nil, fmt.Errorf("%w: %q (directory exists)", ErrExists, m.Name)
	}
	stage, err := os.MkdirTemp(c.dir, ".tmp-"+m.Name+"-")
	if err != nil {
		unregister()
		return nil, fmt.Errorf("catalog: staging dataset: %w", err)
	}
	defer os.RemoveAll(stage) // no-op after a successful rename

	manifestJSON, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		unregister()
		return nil, err
	}
	manifestJSON = append(manifestJSON, '\n')
	if err := os.WriteFile(filepath.Join(stage, manifestFile), manifestJSON, 0o644); err != nil {
		unregister()
		return nil, fmt.Errorf("catalog: writing manifest: %w", err)
	}
	f, err := os.Create(filepath.Join(stage, dataFile))
	if err != nil {
		unregister()
		return nil, fmt.Errorf("catalog: writing data: %w", err)
	}
	if err := relation.WriteCSV(f, rel); err != nil {
		f.Close()
		unregister()
		return nil, fmt.Errorf("catalog: writing data: %w", err)
	}
	if err := f.Close(); err != nil {
		unregister()
		return nil, fmt.Errorf("catalog: writing data: %w", err)
	}
	if err := os.Rename(stage, c.path(m.Name)); err != nil {
		unregister()
		return nil, fmt.Errorf("catalog: publishing dataset: %w", err)
	}
	return rel, nil
}

// Delete removes the dataset: its directory is renamed out of the way
// first (so a concurrent scan or load never sees a half-deleted dataset)
// and then removed, and the name and aliases are released.
func (c *Catalog) Delete(name string) error {
	lock := c.lockFor(name)
	lock.Lock()
	defer lock.Unlock()

	c.mu.Lock()
	m, ok := c.byName[name]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	delete(c.byName, name)
	for _, a := range m.Aliases {
		delete(c.byAlias, a)
	}
	c.mu.Unlock()

	trash, err := os.MkdirTemp(c.dir, ".trash-")
	if err != nil {
		return fmt.Errorf("catalog: deleting %q: %w", name, err)
	}
	defer os.RemoveAll(trash)
	if err := os.Rename(c.path(name), filepath.Join(trash, name)); err != nil {
		return fmt.Errorf("catalog: deleting %q: %w", name, err)
	}
	return nil
}

// LoadRelation parses the dataset's CSV into a relation — the cold path
// a missing or invalid snapshot falls back to.
func (c *Catalog) LoadRelation(name string) (*relation.Relation, error) {
	m, ok := c.Manifest(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	lock := c.lockFor(name)
	lock.Lock()
	defer lock.Unlock()
	f, err := os.Open(filepath.Join(c.path(name), dataFile))
	if err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	defer f.Close()
	// The CSV persists base columns only; hierarchies and range bins are
	// re-derived on every load, range bins against the edges Create
	// recorded, so a reload reproduces the exact columns Create built and
	// appends bin as they did live.
	return m.ReadRelation(f)
}

// AppendRows durably appends delta rows to the dataset's CSV, in the same
// row-major shape Relation.AppendRows consumes. Rows are written in the
// normalized column order Create established (time, dimensions, measure).
// The caller is responsible for having validated the rows through a live
// relation's AppendRows first — this method persists, it does not
// re-validate series order.
func (c *Catalog) AppendRows(name string, timeVals []string, dims [][]string, measures [][]float64) error {
	m, ok := c.Manifest(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if len(dims) != len(timeVals) || len(measures) != len(timeVals) {
		return fmt.Errorf("catalog: AppendRows got %d time values, %d dim rows, %d measure rows",
			len(timeVals), len(dims), len(measures))
	}
	lock := c.lockFor(name)
	lock.Lock()
	defer lock.Unlock()
	f, err := os.OpenFile(filepath.Join(c.path(name), dataFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	w := csv.NewWriter(f)
	// Spec().MeasCols lists the primary measure plus every range-bin
	// source column — appended rows persist all of them, in the same
	// column order Create's normalized CSV established.
	measCols := m.Spec().MeasCols
	rec := make([]string, 1+len(m.DimCols)+len(measCols))
	for i := range timeVals {
		if len(dims[i]) != len(m.DimCols) || len(measures[i]) != len(measCols) {
			f.Close()
			return fmt.Errorf("catalog: row %d has %d dims and %d measures, want %d and %d",
				i, len(dims[i]), len(measures[i]), len(m.DimCols), len(measCols))
		}
		rec[0] = timeVals[i]
		copy(rec[1:], dims[i])
		for j, v := range measures[i] {
			rec[1+len(m.DimCols)+j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := w.Write(rec); err != nil {
			f.Close()
			return fmt.Errorf("catalog: appending row %d: %w", i, err)
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return fmt.Errorf("catalog: appending rows: %w", err)
	}
	return f.Close()
}
