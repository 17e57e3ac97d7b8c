package cloudhttp

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"unidrive/internal/cloudsim"
	"unidrive/internal/obs"
	"unidrive/internal/transfer"
)

// TestDebugEndpointReflectsTraffic drives real HTTP operations through
// an instrumented server and asserts the /debug/unidrive snapshot
// reports exactly that traffic.
func TestDebugEndpointReflectsTraffic(t *testing.T) {
	store := cloudsim.NewStore("observed", 0)
	reg := obs.NewRegistry()
	handler := NewHandler(transfer.Observe(cloudsim.NewDirect(store), nil, transfer.Config{Obs: reg}))
	handler.EnableDebug(reg)
	srv := httptest.NewServer(handler)
	t.Cleanup(srv.Close)

	c, err := Dial(context.Background(), srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	payload := []byte("sixteen bytes!!!")
	if err := c.Upload(ctx, "dir/file.bin", payload); err != nil {
		t.Fatal(err)
	}
	if err := c.Upload(ctx, "dir/other.bin", payload); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Download(ctx, "dir/file.bin"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Download(ctx, "missing.bin"); err == nil {
		t.Fatal("download of missing file succeeded")
	}
	if err := c.CreateDir(ctx, "newdir"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.List(ctx, "dir"); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(ctx, "dir/other.bin"); err != nil {
		t.Fatal(err)
	}

	resp, err := srv.Client().Get(srv.URL + "/debug/unidrive")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var s obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatalf("bad snapshot JSON: %v", err)
	}

	up, ok := s.Op("observed", obs.OpUpload)
	if !ok {
		t.Fatalf("no upload row in %+v", s.Ops)
	}
	if up.Outcome(obs.OK) != 2 || up.BytesUp != int64(2*len(payload)) {
		t.Fatalf("upload row = %+v", up)
	}
	down, _ := s.Op("observed", obs.OpDownload)
	if down.Outcome(obs.OK) != 1 || down.Outcome(obs.NotFound) != 1 {
		t.Fatalf("download row = %+v", down)
	}
	if down.BytesDown != int64(len(payload)) {
		t.Fatalf("download bytes = %d", down.BytesDown)
	}
	for _, op := range []string{obs.OpCreateDir, obs.OpList, obs.OpDelete} {
		row, ok := s.Op("observed", op)
		if !ok || row.Outcome(obs.OK) != 1 {
			t.Fatalf("%s row = %+v (ok=%v)", op, row, ok)
		}
	}

	// /debug/vars works once the registry is published.
	obs.PublishExpvar("cloudhttp_test", reg)
	resp2, err := srv.Client().Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp2.Body).Decode(&vars); err != nil {
		t.Fatalf("bad expvar JSON: %v", err)
	}
	if _, ok := vars["cloudhttp_test"]; !ok {
		t.Fatal("published registry missing from /debug/vars")
	}
}
