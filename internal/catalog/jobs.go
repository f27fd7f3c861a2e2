package catalog

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"
)

// JobsDirName is the subdirectory of a server's data directory that holds
// persisted async-explain jobs. The name is reserved: the catalog scan
// skips it and Create refuses datasets (or aliases) named after it.
const JobsDirName = "jobs"

// ErrJobNotFound reports a job ID the store does not hold.
var ErrJobNotFound = errors.New("catalog: job not found")

// Job lifecycle states. A job is queued on submission, running while a
// worker computes it, and done or failed terminally; the TTL sweeper
// removes terminal jobs after they age out.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// JobRecord is one async explain job, as persisted (one JSON file per
// job) and as served by the job API. Timestamps are Unix milliseconds so
// records are portable across restarts and machines.
type JobRecord struct {
	// ID is the server-assigned job identifier (16 hex digits).
	ID string `json:"id"`
	// Query is the raw explain query string the job will run, exactly as
	// submitted (e.g. "dataset=liquor&k=5&mode=approx").
	Query string `json:"query"`
	// Status is one of JobQueued, JobRunning, JobDone, JobFailed.
	Status string `json:"status"`
	// Error holds the failure message of a JobFailed job.
	Error string `json:"error,omitempty"`
	// SubmittedAtMs and FinishedAtMs bracket the job's lifetime;
	// FinishedAtMs is zero until the job reaches a terminal state.
	SubmittedAtMs int64 `json:"submittedAtMs"`
	FinishedAtMs  int64 `json:"finishedAtMs,omitempty"`
	// Result is the completed job's explain response document, verbatim.
	Result json.RawMessage `json:"result,omitempty"`
}

// Terminal reports whether the job has finished (successfully or not).
func (j *JobRecord) Terminal() bool { return j.Status == JobDone || j.Status == JobFailed }

// jobIDRE is the shape of job IDs: fixed-width lowercase hex, so an ID
// is always a safe file name and never a path.
var jobIDRE = regexp.MustCompile(`^[0-9a-f]{16}$`)

// ValidJobID reports whether s is a well-formed job ID.
func ValidJobID(s string) bool { return jobIDRE.MatchString(s) }

// JobStore persists async jobs as one JSON document per job under a
// dedicated directory, surviving server restarts. All methods are safe
// for concurrent use; writes are atomic (temp file + rename) so a crash
// mid-write never leaves a torn record. The store holds no clock — the
// caller passes time in — which keeps TTL behavior deterministic in
// tests.
type JobStore struct {
	dir string
	mu  sync.Mutex
}

// OpenJobStore opens (creating if needed) the job directory.
func OpenJobStore(dir string) (*JobStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("catalog: creating jobs dir: %w", err)
	}
	return &JobStore{dir: dir}, nil
}

func (s *JobStore) path(id string) string { return filepath.Join(s.dir, id+".json") }

// Put persists the record, replacing any previous version of the job.
func (s *JobStore) Put(j *JobRecord) error {
	if !ValidJobID(j.ID) {
		return fmt.Errorf("catalog: invalid job id %q", j.ID)
	}
	data, err := json.Marshal(j)
	if err != nil {
		return fmt.Errorf("catalog: encoding job %s: %w", j.ID, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tmp, err := os.CreateTemp(s.dir, ".tmp-job-")
	if err != nil {
		return fmt.Errorf("catalog: staging job %s: %w", j.ID, err)
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("catalog: writing job %s: %w", j.ID, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("catalog: writing job %s: %w", j.ID, err)
	}
	if err := os.Rename(name, s.path(j.ID)); err != nil {
		os.Remove(name)
		return fmt.Errorf("catalog: publishing job %s: %w", j.ID, err)
	}
	return nil
}

// Get loads one job by ID.
func (s *JobStore) Get(id string) (*JobRecord, error) {
	if !ValidJobID(id) {
		return nil, fmt.Errorf("%w: %q", ErrJobNotFound, id)
	}
	data, err := os.ReadFile(s.path(id))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %q", ErrJobNotFound, id)
	}
	if err != nil {
		return nil, fmt.Errorf("catalog: reading job %s: %w", id, err)
	}
	var j JobRecord
	if err := json.Unmarshal(data, &j); err != nil {
		return nil, fmt.Errorf("catalog: decoding job %s: %w", id, err)
	}
	return &j, nil
}

// List loads every stored job, sorted by submission time then ID.
// Unreadable or torn records are skipped, not fatal: one bad file must
// not take the whole job API down.
func (s *JobStore) List() ([]*JobRecord, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("catalog: scanning jobs dir: %w", err)
	}
	var out []*JobRecord
	for _, e := range entries {
		id, ok := strings.CutSuffix(e.Name(), ".json")
		if e.IsDir() || !ok || !ValidJobID(id) {
			continue
		}
		j, err := s.Get(id)
		if err != nil {
			continue
		}
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool {
		if out[i].SubmittedAtMs != out[k].SubmittedAtMs {
			return out[i].SubmittedAtMs < out[k].SubmittedAtMs
		}
		return out[i].ID < out[k].ID
	})
	return out, nil
}

// Delete removes one job; deleting an absent job reports ErrJobNotFound.
func (s *JobStore) Delete(id string) error {
	if !ValidJobID(id) {
		return fmt.Errorf("%w: %q", ErrJobNotFound, id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	err := os.Remove(s.path(id))
	if errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("%w: %q", ErrJobNotFound, id)
	}
	return err
}

// Sweep removes terminal jobs older than ttl (by finish time) and
// returns how many it removed. Queued and running jobs are never swept —
// age alone does not cancel work — so a job is only garbage once it has
// delivered (or definitively failed) and the client had ttl to fetch it.
func (s *JobStore) Sweep(now time.Time, ttl time.Duration) (int, error) {
	jobs, err := s.List()
	if err != nil {
		return 0, err
	}
	cutoff := now.Add(-ttl).UnixMilli()
	removed := 0
	for _, j := range jobs {
		if !j.Terminal() || j.FinishedAtMs > cutoff {
			continue
		}
		if err := s.Delete(j.ID); err == nil {
			removed++
		}
	}
	return removed, nil
}
