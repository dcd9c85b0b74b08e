package pipelines

import (
	"strconv"
	"strings"
	"testing"

	tuplex "github.com/gotuplex/tuplex"
	"github.com/gotuplex/tuplex/internal/data"
)

// kernelModes collects the kernels= attribute of every compile span of a
// traced run, in span order: one entry per stage with a batch plan.
func kernelModes(t *testing.T, res *tuplex.Result, err error) []string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	var walk func(s *tuplex.Span)
	walk = func(s *tuplex.Span) {
		for _, a := range s.Attrs {
			if s.Name == "compile" && a.Key == "kernels" {
				out = append(out, a.Val)
			}
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(res.Trace.Root)
	return out
}

// TestKernelModesGolden pins, for the five paper pipelines, which batch
// kernels run as vector programs and what keeps each of the others on its
// row closure — the string the compile span shows as kernels=. A UDF that
// stops vectorizing, or starts to, changes a line here.
func TestKernelModesGolden(t *testing.T) {
	c := tuplex.NewContext(tuplex.WithTracing(tuplex.TraceSpans), tuplex.WithSeed(4242))
	csv := func(b []byte) *tuplex.DataSet { return c.CSV("", tuplex.CSVData(b)) }

	zillow, err := Zillow(csv(data.Zillow(data.ZillowConfig{Rows: 2000, Seed: 1}))).ToCSV("")
	got := map[string][]string{"zillow": kernelModes(t, zillow, err)}

	flights, err := Flights(FlightsSources(c, data.Flights(data.FlightsConfig{Rows: 2000, Seed: 1}), data.Carriers(), data.Airports())).ToCSV("")
	got["flights"] = kernelModes(t, flights, err)

	logs, bad := data.Weblogs(data.WeblogConfig{Rows: 2000, Seed: 1})
	weblogs, err := Weblogs(c.Text("", tuplex.TextData(logs)), csv(bad), WeblogStrip).ToCSV("")
	got["weblogs"] = kernelModes(t, weblogs, err)

	t311, err := ThreeOneOne(csv(data.ThreeOneOne(data.ThreeOneOneConfig{Rows: 2000, Seed: 1}))).ToCSV("")
	got["311"] = kernelModes(t, t311, err)

	_, q6, err := Q6(csv(data.TPCHLineitem(data.TPCHConfig{Rows: 2000, Seed: 1})))
	got["q6"] = kernelModes(t, q6, err)

	want := map[string][]string{
		// All eleven UDF operators of Appendix A.1 (ten kernels ahead of the
		// price filter) run as vector programs.
		"zillow": {"withColumn(bedrooms):vec,filter:vec,withColumn(type):vec,filter:vec,withColumn(zipcode):vec,mapColumn(city):vec," +
			"withColumn(bathrooms):vec,withColumn(sqft):vec,withColumn(offer):vec,withColumn(price):vec,filter:vec"},
		// Carriers build side; airports build side (twice: two joins);
		// then the probe stage. All three joins have unique keys, so the
		// batch keeps its index space through them and the kernels behind
		// them run as labelled (TestFlightsVectorKernelsRunPastJoins).
		// Every probe-stage kernel is a vector program, the ones over
		// sparse-null columns included: cleanCode compares a column the
		// sample typed Null, divertedUDF and the defunct-year filter
		// truth-test Option locals, and five delay columns are Option[f64]
		// under `int(x) if x else 0`.
		"flights": {
			"withColumn(AirlineName):vec,withColumn(AirlineYearFounded):vec,withColumn(AirlineYearDefunct):vec",
			"mapColumn(AirportName):row(Call:string.capwords),mapColumn(AirportCity):row(Call:string.capwords)",
			"mapColumn(AirportName):row(Call:string.capwords),mapColumn(AirportCity):row(Call:string.capwords)",
			"withColumn(OriginCity):vec,withColumn(OriginState):vec,withColumn(DestCity):vec,withColumn(DestState):vec," +
				"mapColumn(CrsArrTime):vec,mapColumn(CrsDepTime):vec,withColumn(CancellationCode):vec," +
				"mapColumn(Diverted):vec,mapColumn(Cancelled):vec,withColumn(CancellationReason):vec," +
				"withColumn(ActualElapsedTime):vec,mapColumn(Distance):vec,mapColumn(AirlineName):vec,filter:vec," +
				"mapColumn(ActualElapsedTime):vec,mapColumn(AirTime):vec,mapColumn(ArrDelay):vec,mapColumn(CarrierDelay):vec," +
				"mapColumn(CrsElapsedTime):vec,mapColumn(DepDelay):vec,mapColumn(LateAircraftDelay):vec,mapColumn(NasDelay):vec," +
				"mapColumn(SecurityDelay):vec,mapColumn(TaxiIn):vec,mapColumn(TaxiOut):vec,mapColumn(WeatherDelay):vec",
		},
		// A text source runs the row path: no batch plan, no kernels.
		"weblogs": nil,
		"311":     {"mapColumn(Incident Zip):row(Call:str),filter:vec"},
		"q6":      {"aggregate:vec"},
	}
	for name, w := range want {
		if g := got[name]; strings.Join(g, "\n") != strings.Join(w, "\n") {
			t.Errorf("%s kernel modes:\n  got  %q\n  want %q", name, g, w)
		}
	}
}

// TestFlightsVectorKernelsRunPastJoins pins what the flights probe stage
// actually runs, not what it compiles: each of its 26 vector kernels, the
// eleven ahead of the three joins and the fifteen behind them, runs as a
// vector program over at least every row the stage emits on the normal
// path. A join that sends the batch back to row closures (as a remap of
// its index space does) fails the bound by about half. And the vector
// programs hand the row closures only rows that raise: a None the body
// tests, compares or returns is decided in the vector, so the stage
// replays no more rows than the run counts normal-path exceptions.
func TestFlightsVectorKernelsRunPastJoins(t *testing.T) {
	c := tuplex.NewContext(tuplex.WithTracing(tuplex.TraceSpans), tuplex.WithSeed(4242))
	res, err := Flights(FlightsSources(c, data.Flights(data.FlightsConfig{Rows: 4000, Seed: 3}), data.Carriers(), data.Airports())).Collect()
	if err != nil {
		t.Fatal(err)
	}
	var kernels, vectorRows, bailRows string
	var walk func(s *tuplex.Span)
	walk = func(s *tuplex.Span) {
		for _, a := range s.Attrs {
			switch {
			case s.Name == "compile" && a.Key == "kernels" && strings.Contains(a.Val, "mapColumn(Distance)"):
				kernels = a.Val
			case s.Name == "execute" && a.Key == "vector_rows" && kernels != "" && vectorRows == "":
				vectorRows = a.Val
			case s.Name == "execute" && a.Key == "vector_bail_rows" && kernels != "" && bailRows == "":
				bailRows = a.Val
			}
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(res.Trace.Root)
	vecKernels := strings.Count(kernels, ":vec")
	if vecKernels != 26 {
		t.Fatalf("probe stage has %d vector kernels, want 26: %s", vecKernels, kernels)
	}
	r := res.Metrics.Rows
	normalOut := r.Output - r.GeneralResolved - r.FallbackResolved - r.ResolverResolved
	got, _ := strconv.ParseInt(vectorRows, 10, 64)
	if want := int64(vecKernels) * normalOut; normalOut < 2000 || got < want {
		t.Fatalf("probe stage vector rows = %s, want >= %d vector kernels x %d normal-path output rows = %d", vectorRows, vecKernels, normalOut, want)
	}
	if bailed, _ := strconv.ParseInt(bailRows, 10, 64); bailRows == "" || bailed > r.NormalPathExceptions {
		t.Fatalf("probe stage replayed %q rows through row closures, more than the run's %d normal-path exceptions", bailRows, r.NormalPathExceptions)
	}
}
