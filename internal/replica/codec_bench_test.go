package replica

import (
	"testing"

	"metarouting/internal/rib"
)

// benchRecords are the full-record sizes the codec benchmarks run: at
// 10k nodes and 16 destinations about the size of query-quiet-10k's
// bootstrap frame (2.2 MB), at 100k nodes and 8 about storm-sparse-100k's
// (11 MB).
var benchRecords = []struct {
	name         string
	nodes, dests int
}{
	{"10k", 10_000, 16},
	{"100k", 100_000, 8},
}

// fullRecord is a full record of dests columns over n nodes in
// chainState's shape: every node routed, toward each destination, with
// one or two next hops.
func fullRecord(n, dests int) *Full {
	cols := make([]*rib.PagedColumn, dests)
	routes := make([][]int32, n)
	for d := range cols {
		dest := d * (n / dests)
		for u := range routes {
			if u == dest {
				routes[u] = []int32{0}
				continue
			}
			routes[u] = append(routes[u][:0], int32(u%7), int32((u+n-1)%n))
			if u%3 == 0 {
				routes[u] = append(routes[u], int32((u+n-2)%n))
			}
		}
		cols[d] = mkColumn(dest, true, routes).Paged()
	}
	return &Full{Version: 1, Fingerprint: 9, Nodes: n, Disabled: NewMask(4 * n),
		Names: []string{"0", "1", "2", "3", "4", "5", "6"}, Columns: cols}
}

var benchFrame []byte

// BenchmarkEncodeFull is the leader's full-record encode (each bootstrap
// and log rotation pays one); MB/s is frame bytes written.
func BenchmarkEncodeFull(b *testing.B) {
	for _, r := range benchRecords {
		b.Run(r.name, func(b *testing.B) {
			f := fullRecord(r.nodes, r.dests)
			b.SetBytes(int64(len(EncodeFull(f))))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchFrame = EncodeFull(f)
			}
		})
	}
}

var benchRecord *Record

// BenchmarkDecodeFull is a follower's full-record decode, pages laid
// straight off the frame; MB/s is frame bytes read.
func BenchmarkDecodeFull(b *testing.B) {
	for _, r := range benchRecords {
		b.Run(r.name, func(b *testing.B) {
			frame := EncodeFull(fullRecord(r.nodes, r.dests))
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec, err := DecodeRecord(frame)
				if err != nil {
					b.Fatal(err)
				}
				benchRecord = rec
			}
		})
	}
}
