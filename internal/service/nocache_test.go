package service

import (
	"net/http"
	"reflect"
	"testing"

	"nascent"
)

// TestNoCacheCompileSectionStable sends the same no_cache /run twice on
// every engine. Both requests compile fresh and retain nothing, yet
// both responses carry the same compile section (static_checks, opt)
// as the cached /compile path.
func TestNoCacheCompileSectionStable(t *testing.T) {
	s := newTestServer(t, nil)
	engines := nascent.EngineNames()
	for _, engine := range engines {
		t.Run(engine, func(t *testing.T) {
			creq := CompileRequest{Source: progOK, Options: Options{Scheme: "all"}, Engine: engine}
			var want CompileResponse
			if w := do(t, s, "POST", "/compile", creq, &want); w.Code != http.StatusOK {
				t.Fatalf("/compile status %d: %s", w.Code, w.Body.String())
			}
			if want.Opt == nil || want.StaticChecks != want.Opt.ChecksAfter {
				t.Fatalf("/compile reported no optimizer facts: %+v", want)
			}
			var runs [2]RunResponse
			for i := range runs {
				if w := do(t, s, "POST", "/run", RunRequest{CompileRequest: creq, NoCache: true}, &runs[i]); w.Code != http.StatusOK {
					t.Fatalf("no_cache /run %d status %d: %s", i, w.Code, w.Body.String())
				}
				got := runs[i].Compile
				if got.StaticChecks != want.StaticChecks || !reflect.DeepEqual(got.Opt, want.Opt) {
					t.Errorf("no_cache /run %d compile section (%d, %+v), want (%d, %+v)",
						i, got.StaticChecks, got.Opt, want.StaticChecks, want.Opt)
				}
			}
			if runs[0].Output != runs[1].Output || runs[0].Instructions != runs[1].Instructions {
				t.Errorf("no_cache runs diverge: %+v vs %+v", runs[0], runs[1])
			}
		})
	}
	// The program cache holds only the entries /compile filled, one per
	// engine; no no_cache run looked one up or added one.
	if st, n := s.pool.CacheStats(), len(engines); st.Entries != n || st.Hits != 0 || st.Misses != uint64(n) {
		t.Errorf("no_cache runs touched the program cache: %+v", st)
	}
}

// TestNoCacheErrorClassStable sends failing no_cache /run requests
// twice: each fresh compile must fail with the same class and message.
func TestNoCacheErrorClassStable(t *testing.T) {
	s := newTestServer(t, nil)
	for _, tc := range []struct {
		name   string
		req    RunRequest
		status int
		class  string
	}{
		{"compile", RunRequest{CompileRequest: CompileRequest{Source: progBad, Engine: "vmrce"}, NoCache: true},
			http.StatusUnprocessableEntity, ClassCompile},
		{"resource", RunRequest{CompileRequest: CompileRequest{Source: progOK, Engine: "vmrce"}, NoCache: true,
			Budget: Budget{MaxInstructions: 10}}, http.StatusRequestTimeout, ClassResource},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first := wantError(t, do(t, s, "POST", "/run", tc.req, nil), tc.status, tc.class)
			second := wantError(t, do(t, s, "POST", "/run", tc.req, nil), tc.status, tc.class)
			if first.Message != second.Message || first.NaccExit != second.NaccExit {
				t.Errorf("hit error differs from miss:\n miss %+v\n hit  %+v", first, second)
			}
		})
	}
}
