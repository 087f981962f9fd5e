package geofootprint

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestGeoserveEndToEnd builds geoserve, starts it on a free port
// against a freshly extracted FootprintDB, and exercises the HTTP API
// from the outside.
func TestGeoserveEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping server integration test in -short mode")
	}
	bin := t.TempDir()
	data := t.TempDir()
	for _, tool := range []string{"geogen", "geoextract", "geoserve"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, tool), "./cmd/"+tool)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}
	ds := filepath.Join(data, "ds.bin")
	dbPath := filepath.Join(data, "fp.db")
	if out, err := exec.Command(filepath.Join(bin, "geogen"), "-part", "A", "-users", "80", "-o", ds).CombinedOutput(); err != nil {
		t.Fatalf("geogen: %v\n%s", err, out)
	}
	if out, err := exec.Command(filepath.Join(bin, "geoextract"), "-i", ds, "-o", dbPath).CombinedOutput(); err != nil {
		t.Fatalf("geoextract: %v\n%s", err, out)
	}

	// Free port.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	srv := exec.Command(filepath.Join(bin, "geoserve"), "-db", dbPath, "-addr", addr)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Process.Kill()
		srv.Wait()
	}()

	base := "http://" + addr
	// Wait for readiness.
	var resp *http.Response
	for i := 0; i < 100; i++ {
		resp, err = http.Get(base + "/healthz")
		if err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never became ready: %v", err)
	}
	var health struct {
		Status string `json:"status"`
		Users  int    `json:"users"`
	}
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if health.Status != "ok" || health.Users != 80 {
		t.Fatalf("health = %+v", health)
	}

	// A similarity query over the wire.
	resp, err = http.Get(fmt.Sprintf("%s/v1/users/%d/similar?k=3&exclude_self=true", base, 5))
	if err != nil {
		t.Fatal(err)
	}
	var results []struct {
		ID         int     `json:"id"`
		Similarity float64 `json:"similarity"`
	}
	json.NewDecoder(resp.Body).Decode(&results)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("similar status %d", resp.StatusCode)
	}
	for _, r := range results {
		if r.ID == 5 || r.Similarity <= 0 || r.Similarity > 1 {
			t.Fatalf("bad result %+v", r)
		}
	}
}
