package lint

import (
	"encoding/json"
	"go/token"
	"strings"
	"testing"
)

// TestEncodeSARIF checks schema shape: version, rule table, and one result
// per finding with physical location.
func TestEncodeSARIF(t *testing.T) {
	findings := []Finding{
		{Pos: token.Position{Filename: "internal/rdd/rdd.go", Line: 12, Column: 3}, Analyzer: "purity", Message: "writes captured state"},
		{Pos: token.Position{Filename: "internal/server/server.go", Line: 40, Column: 9}, Analyzer: "leakcheck", Message: "conn not released on every path"},
	}
	data, err := EncodeSARIF(findings, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatal(err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("want one SARIF 2.1.0 run, got version %q with %d runs", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "sjvet" {
		t.Errorf("driver name = %q, want sjvet", run.Tool.Driver.Name)
	}
	if len(run.Tool.Driver.Rules) != len(Analyzers()) {
		t.Errorf("rule table has %d rules, want %d (one per analyzer)", len(run.Tool.Driver.Rules), len(Analyzers()))
	}
	for i := 1; i < len(run.Tool.Driver.Rules); i++ {
		if run.Tool.Driver.Rules[i-1].ID >= run.Tool.Driver.Rules[i].ID {
			t.Error("rules must be sorted by id")
		}
	}
	if len(run.Results) != 2 {
		t.Fatalf("want 2 results, got %d", len(run.Results))
	}
	r := run.Results[0]
	if r.RuleID != "purity" || r.Level != "error" ||
		r.Locations[0].PhysicalLocation.ArtifactLocation.URI != "internal/rdd/rdd.go" ||
		r.Locations[0].PhysicalLocation.Region.StartLine != 12 {
		t.Errorf("first result mismatched: %+v", r)
	}

	// A clean run must still be a valid log with an empty results array.
	empty, err := EncodeSARIF(nil, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(empty), `"results": []`) {
		t.Error("empty findings should encode an empty results array, not null")
	}
}
