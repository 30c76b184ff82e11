package serve

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/testkit"
)

// servedReply is one recorded response: its status and its body.
type servedReply struct {
	Status int             `json:"status"`
	Body   json.RawMessage `json:"body"`
}

// servedExchange is one scripted request, asked twice in a row: the
// first ask finds no cache entry, the second reads the one the first
// left (an error leaves none, so both asks compute).
type servedExchange struct {
	Request string      `json:"request"`
	Miss    servedReply `json:"miss"`
	Hit     servedReply `json:"hit"`
}

// goldenServedScript is the request script TestGoldenServedBodies runs,
// in order. Every request names its model, since the server holds
// several.
var goldenServedScript = []string{
	// /flow, with and without evidence; a cond no state satisfies is a
	// 422 on both asks.
	"/flow?model=cyclic&source=4&sink=7&samples=150&seed=42",
	"/flow?model=cyclic&source=4&sink=7&samples=150&seed=42&cond=3>4=0,0>5=1",
	"/flow?model=certain&source=0&sink=1&samples=20&cond=0>1=0",

	// /community: top 3 and top past n, with and without evidence.
	"/community?model=cyclic&source=4&samples=120&seed=9&top=3",
	"/community?model=cyclic&source=4&samples=120&seed=10&top=1000",
	"/community?model=cyclic&source=4&samples=120&seed=9&top=3&cond=0>5=1",
	"/community?model=cyclic&source=4&samples=120&seed=10&top=1000&cond=0>5=1",

	// Sampled /impact, with and without evidence, and mode=auto falling
	// back to sampling on a cyclic model and on a DAG too wide for the
	// analytic engine.
	"/impact?model=cyclic&sources=3,1&mode=sampled&samples=150&seed=42",
	"/impact?model=cyclic&sources=3,1,3&mode=sampled&samples=150&seed=42&cond=0>5=1",
	"/impact?model=cyclic&sources=0&samples=80&seed=5",
	"/impact?model=wide&sources=0&samples=60",

	// Analytic /impact: a forest, a DAG, an inexact law on a cyclic
	// model, and a 422 where no law is tractable.
	"/impact?model=forest&sources=0",
	"/impact?model=dag&sources=5,2,5&samples=999&seed=123",
	"/impact?model=cyclic&sources=1&mode=analytic",
	"/impact?model=wide&sources=0&mode=analytic",

	// /maximize: two budgets on one pool (the second reads the first's
	// ranking on both asks), and a pool over a community under evidence.
	"/maximize?model=dag&k=3&seed=5",
	"/maximize?model=dag&k=5&seed=5",
	"/maximize?model=dag&k=2&seed=7&community=12,1,4,6,9,4&cond=0>19=0",
	"/maximize?model=certain&k=1&cond=0>1=0",

	// A deadline that has passed when the /maximize pool build first
	// polls it: a 504 naming the deadline and the interrupted burn-in.
	"/maximize?model=dag&k=2&seed=77&timeout=1ns",

	// Requests with several bad parameters: the first in the parse order
	// decides the error.
	"/flow?source=0&sink=1",
	"/flow?model=nope&source=99&sink=x",
	"/flow?model=dag&source=99&sink=x&cond=bad&samples=0&seed=x&timeout=x",
	"/flow?model=dag&source=0&sink=x&cond=bad",
	"/flow?model=dag&source=0&sink=1&cond=3-7&samples=0&seed=x",
	"/flow?model=dag&source=0&sink=1&cond=2>2=0&samples=0",
	"/flow?model=dag&source=0&sink=1&samples=100000&seed=boom",
	"/flow?model=dag&source=0&sink=1&seed=boom&timeout=-1s",
	"/community?model=dag&source=0&top=-2&timeout=-1s",
	"/community?model=dag&source=0&top=0",
	"/community?model=dag&top=0&cond=x",
	"/impact?model=dag&sources=0&mode=psychic&cond=x",
	"/impact?model=dag&sources=99&mode=psychic",
	"/impact?model=dag&sources=&mode=psychic",
	"/impact?model=dag&sources=0&mode=analytic&cond=1>2=1&seed=boom",
	"/impact?model=dag&sources=0&mode=analytic&cond=1>2=1",
	"/maximize?model=dag&community=99",
	"/maximize?model=dag&k=0&community=99&cond=x",
	"/maximize?model=dag&k=2&community=99&cond=x",
	"/maximize?model=dag&k=2&community=%20&cond=x",
	"/maximize?model=dag&k=2&cond=x&samples=0",
	"/maximize?model=dag&k=2&samples=0&roots=100",
	"/maximize?model=dag&k=2&roots=100&seed=x",
	"/maximize?model=dag&k=2&samples=1000000&seed=x",
	"/maximize?model=dag&k=2&seed=x&timeout=-1s",
}

// TestGoldenServedBodies pins every served body byte for byte: each
// request of goldenServedScript is asked twice, as a miss and then as a
// hit, and the /metrics counters are read after the script. The server
// runs on the wall clock with a short window and the requests run one at
// a time, so every batch holds one request. Regenerate with
//
//	go test ./internal/serve -run TestGoldenServedBodies -update-golden
//
// only for an intended change of what the server answers.
func TestGoldenServedBodies(t *testing.T) {
	srv, _, _ := startServer(t, func(c *Config) {
		c.Models = []Model{
			{Name: "cyclic", ICM: serveICM(3, 20, 60)},
			{Name: "dag", ICM: serveDAG(7, 20, 40)},
			{Name: "forest", ICM: serveStar()},
			{Name: "wide", ICM: serveWideDAG(20)},
			{Name: "certain", ICM: core.MustNewICM(graph.Path(2), []float64{1})},
		}
		c.Clock, c.Window = RealClock(), time.Millisecond
	})
	reply := func(url string) servedReply {
		rec := serveDirect(srv, url)
		return servedReply{Status: rec.Code, Body: json.RawMessage(rec.Body.Bytes())}
	}
	var got struct {
		Exchanges []servedExchange `json:"exchanges"`
		Metrics   json.RawMessage  `json:"metrics"`
	}
	for _, url := range goldenServedScript {
		miss := reply(url)
		got.Exchanges = append(got.Exchanges, servedExchange{Request: url, Miss: miss, Hit: reply(url)})
	}
	metrics := serveDirect(srv, "/metrics")
	if metrics.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", metrics.Code)
	}
	var payload map[string]json.RawMessage
	if err := json.Unmarshal(metrics.Body.Bytes(), &payload); err != nil {
		t.Fatal(err)
	}
	got.Metrics = payload["flowserve"]
	testkit.Golden(t, "served_bodies", got)
}
