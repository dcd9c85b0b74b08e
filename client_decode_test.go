package tuplex_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	tuplex "github.com/gotuplex/tuplex"
	"github.com/gotuplex/tuplex/internal/data"
	"github.com/gotuplex/tuplex/internal/pipelines"
	"github.com/gotuplex/tuplex/internal/service"
	"github.com/gotuplex/tuplex/internal/telemetry"
)

// FuzzDecodeJob: the client decodes a job document to exactly the Job
// json.Unmarshal gives, and fails exactly when json.Unmarshal fails.
func FuzzDecodeJob(f *testing.F) {
	for _, raw := range serverReplies(f) {
		f.Add(raw)
	}
	for _, doc := range []string{
		`{"id":"j1","state":"done","result":{"columns":["a","b"],"rows":[["esc\"aped\u00e9\ud83d\ude00","tab\tin",1e400]],"output_rows":1}}`,
		`{"id":"j1","result":{"rows":[[[1,[2.5]],{"k":"v","n":{"a":[]}},"]","[{",-0,1E+2,null,true]]}}`,
		`{"id":"j1","result":{"rows":[["bad utf8 ` + "\xff" + `"],null,[]]}}`,
		`{"id":"j1","result":{"rows":[],"Rows":[[1]]}}`,
		`{"id":"j1","result":{"rows":[[1]]},"result":{"input_rows":3}}`,
		`{"id":"j1","result":{"rows":[[1,]]}}`,
		`{"id":"j1","result":{"rows":[1]},"state":"done"}`,
		`{"id":7,"result":{"rows":[[1]]}}`,
		`{"id":"j1","result":{"rows":[[1]]}} trailing`,
		` { "id" : "j1" , "result" : { "rows" : [ [ 1 , "x" ] ] , "truncated" : true } } `,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var want tuplex.Job
		werr := json.Unmarshal(raw, &want)
		got, gerr := tuplex.DecodeJob(raw)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("decodeJob error %v, json.Unmarshal error %v", gerr, werr)
		}
		if werr == nil && !reflect.DeepEqual(*got, want) {
			t.Fatalf("decodeJob = %+v\njson.Unmarshal = %+v", *got, want)
		}
	})
}

// serverReplies submits one job of each reply shape to an in-process
// daemon and returns the raw reply bodies: Zillow rows, a result
// truncated by the row cap, an aggregate value, an inline CSV sink, a
// failed job with its events, and an async acceptance.
func serverReplies(f *testing.F) [][]byte {
	srv := service.New(service.Config{MaxResultRows: 100, Registry: telemetry.NewRegistry()})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	zillow := func(rows int) *tuplex.Plan {
		path := filepath.Join(f.TempDir(), "zillow.csv")
		if err := os.WriteFile(path, data.Zillow(data.ZillowConfig{Rows: rows, Seed: 3}), 0o644); err != nil {
			f.Fatal(err)
		}
		return must(f)(pipelines.Zillow(tuplex.NewContext(tuplex.WithExecutors(1)).CSV(path)).Plan())
	}
	c := tuplex.NewContext(tuplex.WithExecutors(1))
	nums := c.Parallelize([][]any{{int64(1)}, {int64(2)}, {int64(3)}}, []string{"a"})
	plans := []*tuplex.Plan{
		zillow(150),
		zillow(600),
		must(f)(nums.Plan()).WithAggregateSink(tuplex.UDF("lambda acc, r: acc + r"), tuplex.UDF("lambda a, b: a + b"), int64(0)),
		must(f)(nums.Plan()).WithCSVSink(""),
		must(f)(c.CSV("", tuplex.CSVData([]byte("a,b\n1.5,x\ninf,y\n2.5,z\n"))).Map(tuplex.UDF("lambda r: (r['a'] * 2.0, r['b'])")).Plan()),
	}
	var out [][]byte
	post := func(p *tuplex.Plan, query string) {
		body, err := json.Marshal(p)
		if err != nil {
			f.Fatal(err)
		}
		resp, err := http.Post(hs.URL+"/v1/jobs"+query, "application/json", bytes.NewReader(body))
		if err != nil {
			f.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, raw)
	}
	for _, p := range plans {
		post(p, "")
	}
	post(plans[2], "?wait=false")
	return out
}

func must(tb testing.TB) func(*tuplex.Plan, error) *tuplex.Plan {
	return func(p *tuplex.Plan, err error) *tuplex.Plan {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
		return p
	}
}
