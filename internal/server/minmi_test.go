package server

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"testing"

	"misketch/internal/store"
)

// TestRankMinMI: min_mi filters the ranking exactly as the store's
// MinMI does, is part of the canonical request (a floor changes the
// ETag; 0 and absent do not), and a negative or non-finite floor is a
// 400.
func TestRankMinMI(t *testing.T) {
	_, ts, st, train := newTestServer(t, 30, Options{ResultCacheBytes: 1 << 20})
	base := RankRequest{Sketch: sketchBase64(t, train), Prefix: "corpus/", MinJoin: intp(10), K: 3, Top: 12}
	all, _, err := st.RankQuery(context.Background(), train, store.RankOptions{
		Prefix: "corpus/", MinJoinSize: 10, K: 3, TopK: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	tau := all[5].MI
	floored := base
	floored.MinMI = tau
	got := rankViaHTTP(t, ts.URL, floored)
	want := all[:sort.Search(len(all), func(i int) bool { return all[i].MI < tau })]
	assertSameRanking(t, got.Ranked, want)

	etagOf := func(body []byte) string {
		t.Helper()
		status, hdr, raw := postRaw(t, ts.URL, "/v1/rank", body, nil)
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, raw)
		}
		return hdr.Get("ETag")
	}
	plain := etagOf(mustJSON(t, base))
	b64 := base.Sketch
	spelledZero := []byte(fmt.Sprintf(`{"sketch":%q,"prefix":"corpus/","min_join":10,"k":3,"top":12,"min_mi":0}`, b64))
	negZero := []byte(fmt.Sprintf(`{"sketch":%q,"prefix":"corpus/","min_join":10,"k":3,"top":12,"min_mi":-0.0}`, b64))
	if etagOf(spelledZero) != plain || etagOf(negZero) != plain {
		t.Fatal("min_mi 0 is not the same request as an absent min_mi")
	}
	if etagOf(mustJSON(t, floored)) == plain {
		t.Fatal("a min_mi floor did not change the ETag")
	}
	for _, bad := range []string{`-1`, `-1e-300`, `1e999`} {
		body := []byte(fmt.Sprintf(`{"sketch":%q,"top":3,"min_mi":%s}`, b64, bad))
		if status, _, raw := postRaw(t, ts.URL, "/v1/rank", body, nil); status != http.StatusBadRequest {
			t.Fatalf("min_mi %s: status %d, want 400: %s", bad, status, raw)
		}
	}
}

// TestRankNoStore: Cache-Control: no-store still computes and answers
// with an ETag that revalidates, but leaves the result cache empty; a
// plain request afterwards stores as usual.
func TestRankNoStore(t *testing.T) {
	_, ts, _, train := newTestServer(t, 10, Options{ResultCacheBytes: 1 << 20})
	q := mustJSON(t, RankRequest{Sketch: sketchBase64(t, train), Prefix: "corpus/", Top: 5})
	noStore := http.Header{"Cache-Control": {"max-age=0, No-Store"}}

	status, hdr, first := postRaw(t, ts.URL, "/v1/rank", q, noStore)
	if status != http.StatusOK || hdr.Get("ETag") == "" {
		t.Fatalf("no-store rank: status %d, ETag %q: %s", status, hdr.Get("ETag"), first)
	}
	if st := statsOf(t, ts.URL); st.ResultEntries != 0 || st.ResultBytes != 0 {
		t.Fatalf("no-store answer was cached: %d entries, %d bytes", st.ResultEntries, st.ResultBytes)
	}
	inm := http.Header{"Cache-Control": noStore["Cache-Control"], "If-None-Match": {hdr.Get("ETag")}}
	if status, _, raw := postRaw(t, ts.URL, "/v1/rank", q, inm); status != http.StatusNotModified {
		t.Fatalf("no-store revalidation: status %d, want 304: %s", status, raw)
	}

	status, hdr2, _ := postRaw(t, ts.URL, "/v1/rank", q, nil)
	if status != http.StatusOK || hdr2.Get("ETag") != hdr.Get("ETag") {
		t.Fatalf("plain rank: status %d, ETag %q, want %q", status, hdr2.Get("ETag"), hdr.Get("ETag"))
	}
	if st := statsOf(t, ts.URL); st.ResultEntries != 1 {
		t.Fatalf("plain rank after no-store: %d cache entries, want 1", st.ResultEntries)
	}
}
