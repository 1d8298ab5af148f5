package serve_test

// Construction-time failures of NewServer: configurations it must
// refuse with an error rather than a panic or a half-built server.

import (
	"math/rand"
	"testing"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/rib"
	"metarouting/internal/serve"
)

func TestNewServerRejectsBadConfig(t *testing.T) {
	a, err := core.InferString("delay(16,3)")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Ring(rand.New(rand.NewSource(11)), 16, graph.UniformLabels(a.OT.F.Size()))
	for _, tc := range []struct {
		name string
		cfg  serve.Config
		opts []serve.Option
	}{
		{"out-of-range anchor", serve.Config{Engine: exec.For(a.OT), Graph: g}, []serve.Option{
			serve.WithAnnouncements([]rib.PrefixOrigin{
				{Prefix: mustPrefix(t, "10.0.0.0/8"), Node: 99, Origin: 0},
			}),
		}},
		{"empty config", serve.Config{}, nil},
		{"nil graph", serve.Config{Engine: exec.For(a.OT)}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := serve.NewServer(tc.cfg, tc.opts...); err == nil {
				t.Fatalf("%s must fail, not panic", tc.name)
			}
		})
	}
}
