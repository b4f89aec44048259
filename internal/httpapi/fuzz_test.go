package httpapi

import (
	"bytes"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"qpiad/internal/afd"
	"qpiad/internal/core"
	"qpiad/internal/datagen"
	"qpiad/internal/nbc"
	"qpiad/internal/source"
)

var (
	fuzzServerOnce sync.Once
	fuzzServerVal  *Server
	fuzzServerErr  error
)

// fuzzServer is one small admission-gated server shared by the request
// body fuzz targets: 600 cars with 10% nulls, mined from a 200-row sample.
func fuzzServer(tb testing.TB) *Server {
	tb.Helper()
	fuzzServerOnce.Do(func() {
		gd := datagen.Cars(600, 21)
		ed, _ := datagen.MakeIncomplete(gd, 0.10, 22)
		smpl := ed.Sample(200, rand.New(rand.NewSource(23)))
		k, err := core.MineKnowledge("cars", smpl,
			float64(ed.Len())/float64(smpl.Len()), smpl.IncompleteFraction(),
			core.KnowledgeConfig{AFD: afd.Config{MinSupport: 5}, Predictor: nbc.PredictorConfig{}, Workers: 1})
		if err != nil {
			fuzzServerErr = err
			return
		}
		med := core.New(core.Config{K: 4, Parallel: 2})
		med.Register(source.New("cars", ed, source.Capabilities{}), k)
		fuzzServerVal = New(med, WithAdmission(AdmissionConfig{MaxInFlight: 4}))
	})
	if fuzzServerErr != nil {
		tb.Fatal(fuzzServerErr)
	}
	return fuzzServerVal
}

// fuzzPost sends body to path and fails if the handler panicked: a request
// body is untrusted input, so every one must end in a status the handler
// chose, never in the recovery middleware.
func fuzzPost(t *testing.T, path string, body []byte) {
	s := fuzzServer(t)
	before := s.panics.Load()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if s.panics.Load() != before {
		t.Fatalf("POST %s %q: handler panic: %s", path, body, rec.Body.Bytes())
	}
	if rec.Code < 200 || rec.Code > 599 {
		t.Fatalf("POST %s %q: status %d", path, body, rec.Code)
	}
}

func FuzzQueryBody(f *testing.F) {
	for _, body := range []string{
		`{"sql": "SELECT * FROM cars WHERE body_style = 'Convt'", "k": 5}`,
		`{"sql": "SELECT make, model FROM cars WHERE price BETWEEN 5000 AND 9000 AND year >= 1996 ORDER BY price DESC LIMIT 20", "no_cache": true}`,
		`{"sql": "SELECT AVG(price) FROM cars WHERE model = 'A4'", "alpha": 0.5}`,
		`{"sql": "SELECT COUNT(*) FROM cars WHERE make != NULL", "k": -1}`,
		`{"sql": "SELECT * FROM cars WHERE body_style IS NULL AND make = 'BMW'", "top_n": 3}`,
		`{"sql": "SELECT * FROM nosuch"}`,
		`{"sql": ""}`,
		`{"sql": 1}`,
		`{`,
		``,
	} {
		f.Add([]byte(body), false)
		f.Add([]byte(body), true)
	}
	f.Fuzz(func(t *testing.T, body []byte, stream bool) {
		path := "/query"
		if stream {
			path += "?stream=1"
		}
		fuzzPost(t, path, body)
	})
}

func FuzzJoinBody(f *testing.F) {
	for _, body := range []string{
		`{"left_sql": "SELECT * FROM cars WHERE body_style = 'Convt'", "right_sql": "SELECT * FROM cars WHERE make = 'BMW'", "on": ["model", "model"], "k": 3}`,
		`{"left_sql": "SELECT * FROM cars WHERE year >= 2003", "right_sql": "SELECT * FROM cars WHERE price <= 9000", "on": ["make", "make"], "alpha": 2}`,
		`{"left_sql": "SELECT * FROM cars", "right_sql": "SELECT * FROM cars", "on": ["nosuch", "model"]}`,
		`{"left_sql": "SELECT COUNT(*) FROM cars", "right_sql": "SELECT * FROM cars", "on": ["model", "model"]}`,
		`{"left_sql": "SELECT * FROM cars", "on": ["model"]}`,
		`{"on": ["", ""]}`,
		`[]`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzPost(t, "/join", body)
	})
}
