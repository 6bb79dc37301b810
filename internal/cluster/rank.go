package cluster

// Scatter-gather ranking. The coordinator validates a request once,
// resolves by-name trains to inline sketch bytes (a stored train lives
// on exactly one shard; the others must still rank against it), fans
// the request out to every shard, and merges the per-shard top-K heaps
// under the store's total order — MI descending, name ascending on
// ties — so the merged top-K is bit-identical to a single node ranking
// the union catalog.

import (
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"sync/atomic"
	"time"

	"misketch/internal/server"
)

// Request aliases: a coordinator accepts exactly the single-node
// request bodies.
type (
	RankRequest      = server.RankRequest
	RankBatchRequest = server.RankBatchRequest
)

// Rank scatters one rank query to every shard and merges the answers.
// It returns a *ClusterError when the request is invalid or no shard
// could answer; a degraded answer (some shards lost) is not an error —
// inspect Partial and ShardErrors. The returned response may be shared
// with the coordinator's result cache and must not be mutated.
func (c *Coordinator) Rank(ctx context.Context, req RankRequest) (*RankResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, &ClusterError{StatusCode: http.StatusBadRequest, Message: err.Error()}
	}
	c.rankRequests.Add(1)
	preq, canon, digest, cerr := c.prepRank(ctx, body)
	if cerr != nil {
		c.rankFailures.Add(1)
		return nil, cerr
	}
	resp, _, _, rerr := c.rankScattered(ctx, preq, canon, digest)
	return resp, rerr
}

// prepRank turns a raw request body into its canonical scattered form:
// decoded, by-name trains resolved to inline sketches, re-marshaled
// (so JSON field order and spelling cannot split the cache), and
// digested for the cache and singleflight keys.
func (c *Coordinator) prepRank(ctx context.Context, body []byte) (*RankRequest, []byte, [sha256.Size]byte, *ClusterError) {
	var zero [sha256.Size]byte
	req, err := server.DecodeRankRequest(body)
	if err != nil {
		return nil, nil, zero, &ClusterError{StatusCode: http.StatusBadRequest, Message: err.Error()}
	}
	if req.Train != "" {
		sketch, cerr := c.resolveTrain(ctx, req.Train)
		if cerr != nil {
			return nil, nil, zero, cerr
		}
		req.Train, req.Sketch = "", sketch
	}
	canon, err := json.Marshal(req)
	if err != nil {
		return nil, nil, zero, &ClusterError{StatusCode: http.StatusInternalServerError, Message: err.Error()}
	}
	return req, canon, requestDigest("rank", canon), nil
}

// rankScattered answers one rank request, in two rounds when it can
// (see rankTwoRound) and otherwise in one cached scatter-merge. It
// returns the merged response, the coordinator's ETag ("" when the
// answer is partial, lists duplicate names, or a shard sent no ETag),
// and the encoded body. Only this function and finish move the
// per-request rank counters, so each client request counts once however
// many rounds it took.
func (c *Coordinator) rankScattered(ctx context.Context, req *RankRequest, canon []byte, digest [sha256.Size]byte) (*RankResponse, string, []byte, error) {
	started := time.Now()
	if req.Top <= 0 || len(c.shards) < 2 || req.NoCascade || req.MinMI != 0 {
		return c.gatherRank(ctx, canon, digest, req.Top, true, nil, nil).finish(c, started)
	}
	memo := c.floorFor(digest)
	var lost []*ShardError
	if (memo != nil && memo.oneRound) || (memo == nil && !c.gate.allow()) {
		c.twoRoundSkipped.Add(1)
	} else {
		r, l := c.rankTwoRound(ctx, req, digest, memo)
		if r != nil {
			c.twoRounds.Add(1)
			return r.finish(c, started)
		}
		c.twoRoundFallbacks.Add(1)
		lost = l
	}
	one := c.gatherRank(ctx, canon, digest, req.Top, true, lost, nil)
	if memo != nil && memo.oneRound && one.replay == nil {
		// The answer moved since two rounds last failed to pay off for
		// this request; let the next repeat try them again.
		c.results.remove(floorKey(digest))
	}
	return one.finish(c, started)
}

// rankRound is one scatter-merge of a rank request.
type rankRound struct {
	digest [sha256.Size]byte
	// resp is the merge, cut at top. Its ShardErrors list the shards
	// that did not answer, then one entry per duplicated name.
	resp *RankResponse
	// replay is the cached merged entry for exactly these shard answers,
	// when every asked shard revalidated; resp is nil then.
	replay *ccEntry
	// answers, tags and lost are per shard. A shard that did not answer
	// has a nil answer; lost holds its error when it was down or broken
	// (a transport failure, a 5xx, an undecodable body) rather than
	// refusing the request.
	answers  []*server.RankResponse
	tags     []string
	lost     []*ShardError
	answered int
	// rows counts the merged rows before the top cut.
	rows       int
	duplicates int
}

// complete reports whether every shard answered and no name came back
// from two shards.
func (r *rankRound) complete() bool {
	return r.answered == len(r.tags) && r.duplicates == 0
}

// lostShards returns the per-shard errors of the shards that were down
// or broken, or nil when there were none.
func (r *rankRound) lostShards() []*ShardError {
	for _, se := range r.lost {
		if se != nil {
			return r.lost
		}
	}
	return nil
}

// gatherRank scatters one canonical rank body to the shards and merges
// the answers. With revalidate set it sends each shard the ETag of its
// cached answer, caches fresh answers, and finds the cached merge when
// every asked shard revalidated; without it nothing is read from or
// written to the coordinator cache. A shard with lost[i] set failed
// earlier in this request:
// it is not asked again and lost[i] is reported as its error. r1, set
// for round 2 of a two-round rank, answers for the shards it marks
// known (see roundOne). When the coordinator has a cache, every rank
// scatter sends no-store: the coordinator keeps each shard's decoded
// answer itself, and a shard revalidates an ETag without its own cache.
func (c *Coordinator) gatherRank(ctx context.Context, canon []byte, digest [sha256.Size]byte, top int, revalidate bool, lost []*ShardError, r1 *roundOne) *rankRound {
	n := len(c.shards)
	round := &rankRound{digest: digest, answers: make([]*server.RankResponse, n), tags: make([]string, n), lost: make([]*ShardError, n)}
	o := scatterOpts{inm: make([]string, n), skip: make([]bool, n), body: make([][]byte, n), noStore: c.results != nil}
	cached := make([]*ccEntry, n)
	for i := range c.shards {
		switch {
		case i < len(lost) && lost[i] != nil:
			o.skip[i] = true
		case r1 != nil && r1.known[i] != nil && r1.fresh:
			o.skip[i] = true // round 1 has just answered for it
		case r1 != nil && r1.known[i] != nil:
			o.body[i], o.inm[i] = r1.canon, r1.known[i].etag
		case revalidate:
			if ent := c.results.get(ccKey{shard: i, digest: digest}); ent != nil {
				cached[i] = ent
				o.inm[i] = ent.etag
			}
		}
	}
	results := c.scatterWith(ctx, http.MethodPost, "/v1/rank", canon, "application/json", o)

	resp := &RankResponse{RankResponse: server.RankResponse{Ranked: []server.RankedResult{}, ProbeCached: true}}
	allRevalidated := true
	for i, r := range results {
		var sr *server.RankResponse
		known := r1 != nil && r1.known[i] != nil
		switch {
		case i < len(lost) && lost[i] != nil:
			allRevalidated = false
			round.lost[i] = lost[i]
			resp.ShardErrors = append(resp.ShardErrors, *lost[i])
			continue
		case known && (o.skip[i] || r.err == nil && r.status == http.StatusNotModified):
			// Round 1 answered for this shard, just now or, as its 304
			// vouches, unchanged since.
			if !o.skip[i] {
				c.results.shardHits.Add(1)
			}
			sr, round.tags[i] = r1.known[i].resp, r1.known[i].etag
		case known && r.err == nil && r.status == http.StatusOK:
			// The shard changed since round 1 and may now hold more rows
			// at or above τ: this round cannot be certified.
			allRevalidated = false
			continue
		case r.err == nil && r.status == http.StatusNotModified && cached[i] != nil:
			// The shard vouched that its cached answer still holds:
			// reuse the decoded heap, no body crossed the wire.
			c.results.shardHits.Add(1)
			sr, round.tags[i] = cached[i].decoded.(*server.RankResponse), cached[i].etag
		case r.err == nil && r.status == http.StatusOK:
			allRevalidated = false
			sr = new(server.RankResponse)
			if err := json.Unmarshal(r.body, sr); err != nil {
				round.lost[i] = &ShardError{Shard: r.shard.url, Error: "undecodable response: " + err.Error()}
				resp.ShardErrors = append(resp.ShardErrors, *round.lost[i])
				continue
			}
			round.tags[i] = r.etag
			if revalidate && r.etag != "" {
				c.results.add(&ccEntry{
					key:     ccKey{shard: i, digest: digest},
					etag:    r.etag,
					decoded: sr,
					size:    int64(len(r.body)) + ccEntryOverhead,
				})
			}
		default:
			allRevalidated = false
			se := r.shardError()
			if r.err != nil || r.status >= 500 {
				round.lost[i] = &se
			}
			resp.ShardErrors = append(resp.ShardErrors, se)
			continue
		}
		round.answers[i] = sr
	}
	rows := make([][]server.RankedResult, n)
	for i, sr := range round.answers {
		if sr != nil {
			rows[i] = sr.Ranked
		}
	}
	dups := c.duplicateNames(rows, map[string]bool{})
	round.duplicates = len(dups)
	resp.ShardErrors = append(resp.ShardErrors, dups...)

	skipped := map[string]bool{}
	for _, sr := range round.answers {
		if sr == nil {
			continue
		}
		round.answered++
		resp.Ranked = append(resp.Ranked, sr.Ranked...)
		for _, name := range sr.Skipped {
			skipped[name] = true
		}
		resp.ProbeCached = resp.ProbeCached && sr.ProbeCached
		if sr.Workers > resp.Workers {
			resp.Workers = sr.Workers
		}
	}
	if revalidate && allRevalidated && round.complete() && allTagged(round.tags) && c.results != nil {
		etag := coordEtagFor(digest, round.tags)
		if ent := c.results.get(ccKey{shard: mergedShard, digest: digest}); ent != nil && ent.etag == etag && sameTags(ent.shardTags, round.tags) {
			// Every asked shard revalidated and the merge for exactly
			// this set of shard answers is cached: replay its bytes.
			c.results.mergedHits.Add(1)
			round.replay = ent
			round.rows = len(ent.decoded.(*RankResponse).Ranked)
			return round
		}
	}
	round.rows = len(resp.Ranked)
	mergeRanked(resp.Ranked, top, &resp.Ranked)
	resp.Skipped = sortedNames(skipped)
	round.resp = resp
	return round
}

// duplicateNames finds names returned by more than one shard, given
// each shard's rows for one query (nil for a shard without an answer).
// Shards are meant to hold disjoint catalogs; a name on two of them
// would be ranked twice, and the two-round certificate counts rows as
// distinct candidates. Each duplicated name yields one ShardError
// naming both shards. Names already in reported are skipped and each
// new one is added, so a batch reports a name once however many of its
// queries rank it.
func (c *Coordinator) duplicateNames(rows [][]server.RankedResult, reported map[string]bool) []ShardError {
	owner := map[string]int{}
	var dups []ShardError
	for i, ranked := range rows {
		for _, row := range ranked {
			j, seen := owner[row.Name]
			if !seen {
				owner[row.Name] = i
				continue
			}
			if reported[row.Name] {
				continue
			}
			reported[row.Name] = true
			dups = append(dups, ShardError{
				Shard: c.shards[i].url,
				Error: fmt.Sprintf("sketch %q is on both %s and %s; shards must hold disjoint catalogs", row.Name, c.shards[j].url, c.shards[i].url),
			})
		}
	}
	return dups
}

// finish turns a gathered round into the client's answer: it counts the
// request's outcome, derives the coordinator ETag, and caches the merge.
// A partial answer, or one with duplicated names, carries no ETag and is
// never cached.
func (r *rankRound) finish(c *Coordinator, started time.Time) (*RankResponse, string, []byte, error) {
	if r.replay != nil {
		return r.replay.decoded.(*RankResponse), r.replay.etag, r.replay.body, nil
	}
	resp := r.resp
	if r.answered == 0 {
		c.rankFailures.Add(1)
		return nil, "", nil, allShardsFailed("rank", resp.ShardErrors)
	}
	resp.Partial = r.answered < len(r.tags)
	if resp.Partial {
		c.rankPartial.Add(1)
	}
	if r.duplicates > 0 {
		c.duplicateNamesSeen.Add(int64(r.duplicates))
	}
	etag := ""
	if r.complete() && allTagged(r.tags) {
		etag = coordEtagFor(r.digest, r.tags)
	}
	resp.ElapsedNS = time.Since(started).Nanoseconds()
	encoded := encodeJSON(resp)
	if etag != "" && c.results != nil {
		c.results.add(&ccEntry{
			key:       ccKey{shard: mergedShard, digest: r.digest},
			etag:      etag,
			decoded:   resp,
			body:      encoded,
			shardTags: r.tags,
			size:      int64(len(encoded)) + ccEntryOverhead,
		})
	}
	return resp, etag, encoded, nil
}

// allTagged reports whether every shard sent an ETag; without one the
// coordinator cannot vouch for content stability and emits none.
func allTagged(tags []string) bool {
	for _, t := range tags {
		if t == "" {
			return false
		}
	}
	return true
}

// RankBatch scatters one batch rank query to every shard and merges
// the answers; error and sharing semantics mirror Rank.
func (c *Coordinator) RankBatch(ctx context.Context, req RankBatchRequest) (*RankBatchResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, &ClusterError{StatusCode: http.StatusBadRequest, Message: err.Error()}
	}
	c.batchRequests.Add(1)
	preq, canon, digest, cerr := c.prepRankBatch(ctx, body)
	if cerr != nil {
		c.batchFailures.Add(1)
		return nil, cerr
	}
	resp, _, _, rerr := c.rankBatchScattered(ctx, preq, canon, digest)
	return resp, rerr
}

// prepRankBatch mirrors prepRank for the batch endpoint.
func (c *Coordinator) prepRankBatch(ctx context.Context, body []byte) (*RankBatchRequest, []byte, [sha256.Size]byte, *ClusterError) {
	var zero [sha256.Size]byte
	req, err := server.DecodeRankBatchRequest(body)
	if err != nil {
		return nil, nil, zero, &ClusterError{StatusCode: http.StatusBadRequest, Message: err.Error()}
	}
	for i := range req.Trains {
		if req.Trains[i].Train == "" {
			continue
		}
		sketch, cerr := c.resolveTrain(ctx, req.Trains[i].Train)
		if cerr != nil {
			return nil, nil, zero, cerr
		}
		req.Trains[i].Train, req.Trains[i].Sketch = "", sketch
	}
	canon, err := json.Marshal(req)
	if err != nil {
		return nil, nil, zero, &ClusterError{StatusCode: http.StatusInternalServerError, Message: err.Error()}
	}
	return req, canon, requestDigest("batch", canon), nil
}

// rankBatchScattered is rankScattered for the batch endpoint.
func (c *Coordinator) rankBatchScattered(ctx context.Context, req *RankBatchRequest, canon []byte, digest [sha256.Size]byte) (*RankBatchResponse, string, []byte, error) {
	started := time.Now()
	inm := make([]string, len(c.shards))
	cached := make([]*ccEntry, len(c.shards))
	if c.results != nil {
		for i := range c.shards {
			if ent := c.results.get(ccKey{shard: i, digest: digest}); ent != nil {
				cached[i] = ent
				inm[i] = ent.etag
			}
		}
	}
	results := c.scatterWith(ctx, http.MethodPost, "/v1/rank/batch", canon, "application/json", scatterOpts{inm: inm})

	resp := &RankBatchResponse{RankBatchResponse: server.RankBatchResponse{}}
	// Queries merge positionally: every shard answers in request order,
	// so query q's slices concatenate across shards.
	merged := make([]server.BatchQueryResponse, len(req.Trains))
	for q := range merged {
		merged[q] = server.BatchQueryResponse{Name: req.Trains[q].Name, Ranked: []server.RankedResult{}}
	}
	skipped := map[string]bool{}
	tags := make([]string, len(results))
	answers := make([]*server.RankBatchResponse, len(results))
	answered := 0
	allRevalidated := true
	merge := func(i int, sr *server.RankBatchResponse) {
		answers[i] = sr
		answered++
		for q := range sr.Queries {
			merged[q].Ranked = append(merged[q].Ranked, sr.Queries[q].Ranked...)
			merged[q].Pruned += sr.Queries[q].Pruned
		}
		for _, name := range sr.Skipped {
			skipped[name] = true
		}
		resp.ProbesCached += sr.ProbesCached
		if sr.Workers > resp.Workers {
			resp.Workers = sr.Workers
		}
	}
	for i, r := range results {
		switch {
		case r.err == nil && r.status == http.StatusNotModified && cached[i] != nil:
			c.results.shardHits.Add(1)
			tags[i] = cached[i].etag
			merge(i, cached[i].decoded.(*server.RankBatchResponse))
		case r.err == nil && r.status == http.StatusOK:
			allRevalidated = false
			var sr server.RankBatchResponse
			if err := json.Unmarshal(r.body, &sr); err != nil || len(sr.Queries) != len(merged) {
				resp.ShardErrors = append(resp.ShardErrors, ShardError{Shard: r.shard.url, Error: "undecodable batch response"})
				continue
			}
			tags[i] = r.etag
			if c.results != nil && r.etag != "" {
				c.results.add(&ccEntry{
					key:     ccKey{shard: i, digest: digest},
					etag:    r.etag,
					decoded: &sr,
					size:    int64(len(r.body)) + ccEntryOverhead,
				})
			}
			merge(i, &sr)
		default:
			allRevalidated = false
			resp.ShardErrors = append(resp.ShardErrors, r.shardError())
		}
	}
	if answered == 0 {
		c.batchFailures.Add(1)
		return nil, "", nil, allShardsFailed("rank batch", resp.ShardErrors)
	}
	resp.Partial = answered < len(results)
	if resp.Partial {
		c.batchPartial.Add(1)
	} else {
		resp.ShardErrors = nil
	}
	// Shards are disjoint by contract, not by construction: check every
	// query's rows, as the single rank does.
	reported := map[string]bool{}
	rows := make([][]server.RankedResult, len(answers))
	for q := range merged {
		for i, sr := range answers {
			rows[i] = nil
			if sr != nil {
				rows[i] = sr.Queries[q].Ranked
			}
		}
		resp.ShardErrors = append(resp.ShardErrors, c.duplicateNames(rows, reported)...)
	}
	if len(reported) > 0 {
		c.duplicateNamesSeen.Add(int64(len(reported)))
	}

	etag := ""
	if !resp.Partial && len(reported) == 0 && allTagged(tags) {
		etag = coordEtagFor(digest, tags)
		if allRevalidated && c.results != nil {
			if ent := c.results.get(ccKey{shard: mergedShard, digest: digest}); ent != nil && ent.etag == etag && sameTags(ent.shardTags, tags) {
				c.results.mergedHits.Add(1)
				return ent.decoded.(*RankBatchResponse), etag, ent.body, nil
			}
		}
	}
	for q := range merged {
		mergeRanked(merged[q].Ranked, req.Top, &merged[q].Ranked)
	}
	resp.Queries = merged
	resp.Skipped = sortedNames(skipped)
	resp.ElapsedNS = time.Since(started).Nanoseconds()
	encoded := encodeJSON(resp)
	if etag != "" && c.results != nil {
		c.results.add(&ccEntry{
			key:       ccKey{shard: mergedShard, digest: digest},
			etag:      etag,
			decoded:   resp,
			body:      encoded,
			shardTags: tags,
			size:      int64(len(encoded)) + ccEntryOverhead,
		})
	}
	return resp, etag, encoded, nil
}

// resolveTrain locates a stored train by name: scatter GET /v1/get, the
// owning shard answers with the serialized sketch, and the coordinator
// inlines it (base64) so every shard can rank against it. The 404/500
// split is load-bearing: only a unanimous 404 proves the name exists
// nowhere; a sick shard (5xx, unreachable) could be the owner, so the
// resolution fails 502 rather than inventing a 404.
func (c *Coordinator) resolveTrain(ctx context.Context, name string) (string, *ClusterError) {
	results := c.scatter(ctx, http.MethodGet, "/v1/get?name="+url.QueryEscape(name), nil, "")
	notFound := 0
	var serrs []ShardError
	for _, r := range results {
		if r.err == nil && r.status == http.StatusOK {
			return base64.StdEncoding.EncodeToString(r.body), nil
		}
		if r.err == nil && r.status == http.StatusNotFound {
			notFound++
			continue
		}
		serrs = append(serrs, r.shardError())
	}
	if notFound == len(results) {
		return "", &ClusterError{
			StatusCode: http.StatusNotFound,
			Message:    "no shard stores sketch \"" + name + "\"",
		}
	}
	return "", &ClusterError{
		StatusCode: http.StatusBadGateway,
		Message:    "train \"" + name + "\" could not be resolved: not on any healthy shard, and some shards failed",
		Shards:     serrs,
	}
}

// allShardsFailed classifies a query with zero successful shards. When
// every shard agreed on the same client-error status the request itself
// is at fault and the coordinator forwards that status (e.g. a 400 seed
// mismatch); any disagreement or server-side failure is a 502.
func allShardsFailed(what string, serrs []ShardError) *ClusterError {
	status := 0
	uniform := true
	for _, se := range serrs {
		if se.Status < 400 || se.Status >= 500 {
			uniform = false
			break
		}
		if status == 0 {
			status = se.Status
		} else if se.Status != status {
			uniform = false
			break
		}
	}
	ce := &ClusterError{StatusCode: http.StatusBadGateway, Message: what + ": every shard failed", Shards: serrs}
	if uniform && status != 0 {
		ce.StatusCode = status
		ce.Message = what + ": " + serrs[0].Error
	}
	return ce
}

// mergeRanked sorts the concatenated per-shard rankings under the
// store's total order and cuts at top (0 keeps all). Shards are
// disjoint, so names are unique and (MI desc, name asc) is total —
// the merge is deterministic and bit-identical to a single-node rank
// over the union catalog. A rank answer that breaks disjointness is
// reported by duplicateNames.
func mergeRanked(in []server.RankedResult, top int, out *[]server.RankedResult) {
	sort.Slice(in, func(i, j int) bool {
		if in[i].MI != in[j].MI {
			return in[i].MI > in[j].MI
		}
		return in[i].Name < in[j].Name
	})
	if top > 0 && len(in) > top {
		in = in[:top]
	}
	*out = in
}

func sortedNames(set map[string]bool) []string {
	if len(set) == 0 {
		return nil
	}
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func (c *Coordinator) handleRank(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	c.rankRequests.Add(1)
	req, canon, digest, cerr := c.prepRank(r.Context(), body)
	if cerr != nil {
		c.rankFailures.Add(1)
		writeClusterError(w, cerr)
		return
	}

	f, leader, release := c.results.joinFlight(r.Context(), digest)
	defer release()
	if !leader {
		c.awaitFlight(w, r, f, &c.rankFailures)
		return
	}
	resp, etag, encoded, rerr := c.rankScattered(f.ctx, req, canon, digest)
	_ = resp
	if rerr != nil {
		status, errBody := clusterErrorBytes(rerr)
		c.results.finishFlight(digest, f, status, "", errBody)
		writeOutcome(w, r, c.results, status, "", errBody)
		return
	}
	c.results.finishFlight(digest, f, http.StatusOK, etag, encoded)
	writeOutcome(w, r, c.results, http.StatusOK, etag, encoded)
}

func (c *Coordinator) handleRankBatch(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	c.batchRequests.Add(1)
	req, canon, digest, cerr := c.prepRankBatch(r.Context(), body)
	if cerr != nil {
		c.batchFailures.Add(1)
		writeClusterError(w, cerr)
		return
	}

	f, leader, release := c.results.joinFlight(r.Context(), digest)
	defer release()
	if !leader {
		c.awaitFlight(w, r, f, &c.batchFailures)
		return
	}
	resp, etag, encoded, rerr := c.rankBatchScattered(f.ctx, req, canon, digest)
	_ = resp
	if rerr != nil {
		status, errBody := clusterErrorBytes(rerr)
		c.results.finishFlight(digest, f, status, "", errBody)
		writeOutcome(w, r, c.results, status, "", errBody)
		return
	}
	c.results.finishFlight(digest, f, http.StatusOK, etag, encoded)
	writeOutcome(w, r, c.results, http.StatusOK, etag, encoded)
}

// awaitFlight serves a coalesced request from its flight's published
// outcome; failures counts the replayed error against this endpoint.
func (c *Coordinator) awaitFlight(w http.ResponseWriter, r *http.Request, f *cflight, failures *atomic.Int64) {
	select {
	case <-f.done:
		if f.status != http.StatusOK {
			failures.Add(1)
		}
		writeOutcome(w, r, c.results, f.status, f.etag, f.body)
	case <-r.Context().Done():
		httpError(w, http.StatusServiceUnavailable,
			"client cancelled while coalesced behind an identical in-flight query")
	}
}

// writeOutcome puts a (status, etag, body) outcome on the wire,
// honoring the request's own If-None-Match when the outcome carries an
// ETag — each coalesced participant revalidates independently.
func writeOutcome(w http.ResponseWriter, r *http.Request, cc *clusterCache, status int, etag string, body []byte) {
	if status == http.StatusOK && etag != "" {
		if etagMatches(r.Header.Get("If-None-Match"), etag) {
			if cc != nil {
				cc.notModified.Add(1)
			}
			w.Header().Set("ETag", etag)
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Header().Set("ETag", etag)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// clusterErrorBytes encodes a query failure exactly as
// writeClusterError serves it, for replay to coalesced waiters.
func clusterErrorBytes(err error) (int, []byte) {
	var ce *ClusterError
	if !errors.As(err, &ce) {
		return http.StatusInternalServerError, encodeJSON(errorResponse{Error: err.Error()})
	}
	return ce.StatusCode, encodeJSON(struct {
		Error       string       `json:"error"`
		ShardErrors []ShardError `json:"shard_errors,omitempty"`
	}{ce.Message, ce.Shards})
}

// handleLs merges the shard manifests into one listing, sorted by name.
func (c *Coordinator) handleLs(w http.ResponseWriter, r *http.Request) {
	pathAndQuery := "/v1/ls"
	if prefix := r.URL.Query().Get("prefix"); prefix != "" {
		pathAndQuery += "?prefix=" + url.QueryEscape(prefix)
	}
	results := c.scatter(r.Context(), http.MethodGet, pathAndQuery, nil, "")
	resp := LsResponse{LsResponse: server.LsResponse{Sketches: []server.MetaResult{}}}
	answered := 0
	for _, res := range results {
		if res.err != nil || res.status != http.StatusOK {
			resp.ShardErrors = append(resp.ShardErrors, res.shardError())
			continue
		}
		var sr server.LsResponse
		if err := json.Unmarshal(res.body, &sr); err != nil {
			resp.ShardErrors = append(resp.ShardErrors, ShardError{Shard: res.shard.url, Error: "undecodable response: " + err.Error()})
			continue
		}
		answered++
		resp.Sketches = append(resp.Sketches, sr.Sketches...)
	}
	if answered == 0 {
		writeClusterError(w, allShardsFailed("ls", resp.ShardErrors))
		return
	}
	resp.Partial = answered < len(results)
	if !resp.Partial {
		resp.ShardErrors = nil
	}
	sort.Slice(resp.Sketches, func(i, j int) bool { return resp.Sketches[i].Name < resp.Sketches[j].Name })
	resp.Count = len(resp.Sketches)
	writeJSON(w, http.StatusOK, resp)
}

func readBody(r *http.Request) ([]byte, error) {
	defer r.Body.Close()
	return io.ReadAll(r.Body)
}
