package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// treeDigest maps every path under root to its file content's SHA-256
// ("dir" for directories).
func treeDigest(t *testing.T, root string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			out[rel] = "dir"
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(b)
		out[rel] = hex.EncodeToString(sum[:])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestHostilePathParameters sends path traversals and malformed names
// and IDs to every route that reads one from the URL path, on a catalog
// server that holds one dataset and one finished job. No request may
// succeed, and nothing under the server's root — the data directory, its
// job store, and decoy files beside it that a traversal would reach —
// may change.
func TestHostilePathParameters(t *testing.T) {
	root := t.TempDir()
	for _, decoy := range []string{"x/data.csv", "etc/passwd"} {
		p := filepath.Join(root, decoy)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte("decoy\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := newCatalogServer(t, filepath.Join(root, "data"))
	if rec := upload(t, s, catalogTestManifest, catalogTestCSV(12), true); rec.Code != 201 {
		t.Fatalf("upload: %d: %s", rec.Code, rec.Body.String())
	}
	rec := post(t, s, "/api/jobs?dataset=mydata&k=2")
	if rec.Code != 202 {
		t.Fatalf("job submit: %d: %s", rec.Code, rec.Body.String())
	}
	var job jobView
	if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil {
		t.Fatal(err)
	}
	if j := pollJob(t, s, job.ID); j.Status != "done" {
		t.Fatalf("job ended %q: %s", j.Status, j.Error)
	}
	before := treeDigest(t, root)

	names := []string{"..", "../x", "%2e%2e", "a%2Fb", ".x", "MYDATA", strings.Repeat("a", 65)}
	ids := []string{"..", "..%2F..%2Fetc%2Fpasswd", "-1", "0", job.ID[:15], job.ID + "0", strings.ToUpper(job.ID)}
	type probe struct{ method, path, body string }
	var probes []probe
	// A well-formed row for the stored dataset: only the name is hostile.
	row := `{"time":"2021-03-13","dims":{"state":"NY","county":"kings"},"measure":140}` + "\n"
	for _, name := range names {
		probes = append(probes,
			probe{"DELETE", "/api/datasets/" + name, ""},
			probe{"POST", "/api/datasets/" + name + "/append", row})
	}
	for _, id := range ids {
		probes = append(probes,
			probe{"GET", "/api/jobs/" + id, ""},
			probe{"DELETE", "/api/jobs/" + id, ""})
	}
	for _, p := range probes {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(p.method, p.path, strings.NewReader(p.body)))
		if rec.Code >= 200 && rec.Code < 300 {
			t.Errorf("%s %s answered %d: %s", p.method, p.path, rec.Code, rec.Body.String())
		}
	}

	if after := treeDigest(t, root); !reflect.DeepEqual(after, before) {
		t.Errorf("file tree changed under hostile paths:\nbefore %v\nafter  %v", before, after)
	}
}
