package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	dynhl "repro"
)

// target is the public entry point a workload drives: the Store called
// in-process, or the HTTP API over loopback.
type target interface {
	query(p dynhl.Pair) (dynhl.Dist, uint64, error)
	queryBatch(ps []dynhl.Pair) ([]dynhl.Dist, uint64, error)
	apply(op dynhl.Op) (dynhl.UpdateSummary, uint64, error)
}

// storeTarget calls a Store in-process: each read takes a fresh View, as
// a server does per request.
type storeTarget struct{ st *dynhl.Store }

func (t storeTarget) query(p dynhl.Pair) (dynhl.Dist, uint64, error) {
	v := t.st.Snapshot()
	return v.Query(p.U, p.V), v.Epoch(), nil
}

func (t storeTarget) queryBatch(ps []dynhl.Pair) ([]dynhl.Dist, uint64, error) {
	v := t.st.Snapshot()
	return v.QueryBatch(ps), v.Epoch(), nil
}

func (t storeTarget) apply(op dynhl.Op) (dynhl.UpdateSummary, uint64, error) {
	res, err := t.st.ApplyCtx(context.Background(), []dynhl.Op{op})
	if err != nil {
		return dynhl.UpdateSummary{}, 0, err
	}
	if len(res.Summaries) != 1 {
		return dynhl.UpdateSummary{}, 0, fmt.Errorf("apply returned %d summaries for one op", len(res.Summaries))
	}
	return res.Summaries[0], res.Epoch, nil
}

// httpTarget speaks the JSON API of internal/httpapi to base.
type httpTarget struct {
	c    *http.Client
	base string
}

func (t httpTarget) do(req *http.Request, dst any) (uint64, error) {
	resp, err := t.c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, bytes.TrimSpace(body))
	}
	epoch, err := strconv.ParseUint(resp.Header.Get("X-Oracle-Epoch"), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%s %s: epoch header: %w", req.Method, req.URL.Path, err)
	}
	return epoch, json.Unmarshal(body, dst)
}

func (t httpTarget) query(p dynhl.Pair) (dynhl.Dist, uint64, error) {
	req, err := http.NewRequest(http.MethodGet, t.base+"/distance?u="+strconv.FormatUint(uint64(p.U), 10)+"&v="+strconv.FormatUint(uint64(p.V), 10), nil)
	if err != nil {
		return 0, 0, err
	}
	var out struct {
		Distance *uint32 `json:"distance"`
	}
	epoch, err := t.do(req, &out)
	return jsonDist(out.Distance), epoch, err
}

func (t httpTarget) queryBatch(ps []dynhl.Pair) ([]dynhl.Dist, uint64, error) {
	body, err := json.Marshal(struct {
		Pairs []dynhl.Pair `json:"pairs"`
	}{ps})
	if err != nil {
		return nil, 0, err
	}
	req, err := http.NewRequest(http.MethodPost, t.base+"/distances", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	var out struct {
		Distances []*uint32 `json:"distances"`
	}
	epoch, err := t.do(req, &out)
	if err != nil {
		return nil, 0, err
	}
	if len(out.Distances) != len(ps) {
		return nil, 0, fmt.Errorf("POST /distances: %d answers for %d pairs", len(out.Distances), len(ps))
	}
	ds := make([]dynhl.Dist, len(ps))
	for i, d := range out.Distances {
		ds[i] = jsonDist(d)
	}
	return ds, epoch, nil
}

func (t httpTarget) apply(op dynhl.Op) (dynhl.UpdateSummary, uint64, error) {
	body, err := json.Marshal(struct {
		Ops []dynhl.Op `json:"ops"`
	}{[]dynhl.Op{op}})
	if err != nil {
		return dynhl.UpdateSummary{}, 0, err
	}
	req, err := http.NewRequest(http.MethodPost, t.base+"/updates", bytes.NewReader(body))
	if err != nil {
		return dynhl.UpdateSummary{}, 0, err
	}
	var out struct {
		Epoch   uint64                `json:"epoch"`
		Results []dynhl.UpdateSummary `json:"results"`
	}
	epoch, err := t.do(req, &out)
	if err != nil {
		return dynhl.UpdateSummary{}, 0, err
	}
	if len(out.Results) != 1 || out.Epoch != epoch {
		return dynhl.UpdateSummary{}, 0, fmt.Errorf("POST /updates: %d results, body epoch %d, header epoch %d", len(out.Results), out.Epoch, epoch)
	}
	return out.Results[0], epoch, nil
}

func jsonDist(d *uint32) dynhl.Dist {
	if d == nil {
		return dynhl.Inf
	}
	return *d
}
