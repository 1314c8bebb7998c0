package bench

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"scrubjay/internal/dataset"
	"scrubjay/internal/engine"
	"scrubjay/internal/frame"
	"scrubjay/internal/pipeline"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/shuffle"
)

// TestShippedPlansStayColumnar runs the Figure 5 and Figure 7 plans over
// catalogs born columnar (as the server holds them) and fails on any stage
// that converts between rows and frames before the final collect, or on a
// row-form result: every shipped derivation must run as a frame kernel. It also pins the name of
// derive_heat's exchange, which the trace-fed statistics key on. And it
// fails if any catalog frame encodes to different bytes after the plan
// has run and been collected: the server shares its catalog frames across
// concurrent requests, so no kernel may write into one.
func TestShippedPlansStayColumnar(t *testing.T) {
	cfg := smallCaseStudy()
	dict := semantics.DefaultDictionary()
	for _, fig := range []struct {
		name    string
		catalog func(*rdd.Context, CaseStudyConfig) (pipeline.Catalog, map[string]semantics.Schema)
		query   engine.Query
		stage   string // an exchange the plan must run
	}{
		{"fig5", func(ctx *rdd.Context, cfg CaseStudyConfig) (pipeline.Catalog, map[string]semantics.Schema) {
			cat, schemas, _ := DAT1Catalog(ctx, cfg)
			return cat, schemas
		}, Fig5Query(), "rack_temperatures|groupByKey|exchange"},
		{"fig7", func(ctx *rdd.Context, cfg CaseStudyConfig) (pipeline.Catalog, map[string]semantics.Schema) {
			cat, schemas, _ := DAT2Catalog(ctx, cfg)
			return cat, schemas
		}, Fig7Query(), "papi|groupByKey|exchange"},
	} {
		t.Run(fig.name, func(t *testing.T) {
			ctx := rdd.NewContext(cfg.Workers)
			rowCat, schemas := fig.catalog(ctx, cfg)
			cat := pipeline.Catalog{}
			catFrames := map[string][]*frame.Frame{}
			encoded := map[string][]byte{}
			for name, ds := range rowCat {
				frames := ds.Frames().Collect()
				catFrames[name] = frames
				encoded[name] = encodeFrames(frames)
				cat[name] = dataset.FromFrames(ctx, name, frames, ds.Schema())
			}
			plan, err := engine.New(dict, schemas, engine.DefaultOptions()).Solve(context.Background(), fig.query)
			if err != nil {
				t.Fatal(err)
			}
			ctx.ResetMetrics()
			out, err := pipeline.Execute(context.Background(), ctx, plan, cat, dict, pipeline.ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !out.IsColumnar() {
				t.Error("plan output is row-form: a step ran a row operator")
			}
			if rows := out.Collect(); len(rows) == 0 {
				t.Fatal("plan produced no rows")
			}
			for name, frames := range catFrames {
				if !bytes.Equal(encodeFrames(frames), encoded[name]) {
					t.Errorf("catalog table %s changed while the plan ran", name)
				}
			}
			stages := ctx.SnapshotMetrics().Stages
			found := false
			for i, st := range stages {
				found = found || st.Name == fig.stage
				if i == len(stages)-1 {
					if !strings.HasSuffix(st.Name, "|collect") {
						t.Errorf("last stage %q is not the final collect", st.Name)
					}
					continue
				}
				if strings.Contains(st.Name, "|unbox") || strings.Contains(st.Name, "|box") {
					t.Errorf("stage %q converts between rows and frames inside the plan", st.Name)
				}
			}
			if !found {
				names := make([]string, len(stages))
				for i, st := range stages {
					names[i] = st.Name
				}
				t.Errorf("no stage named %q; stages:\n%s", fig.stage, strings.Join(names, "\n"))
			}
		})
	}
}

// encodeFrames concatenates the wire encodings of frames.
func encodeFrames(frames []*frame.Frame) []byte {
	var buf []byte
	for _, f := range frames {
		buf = shuffle.AppendFrame(buf, f)
	}
	return buf
}
