package wire

import (
	"fmt"
	"strings"

	"bqs/internal/measures"
)

// MaxIDRange bounds how many server indices one range spec may name. It
// is far above any universe this repo builds (the largest is ~10⁴
// servers); its job is turning a typo'd spec like "0-4294967295" into a
// diagnostic instead of a multi-gigabyte allocation.
const MaxIDRange = 1 << 20

// ParseIDRange parses a shard spec like "0-24" or "7" into the inclusive
// list of global server indices it names.
func ParseIDRange(spec string) ([]int, error) {
	lo, hi, err := parseRange(spec)
	if err != nil {
		return nil, err
	}
	out := make([]int, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		out = append(out, i)
	}
	return out, nil
}

// parseRange delegates the shared "lo-hi"/"id" syntax to measures' parser
// (fault schedules and churn specs use the identical form) and adds the
// wire-level size cap.
func parseRange(spec string) (lo, hi int, err error) {
	lo, hi, err = measures.ParseRange(spec)
	if err != nil {
		return 0, 0, fmt.Errorf("wire: bad id range %q (want \"lo-hi\" or \"id\")", spec)
	}
	if hi-lo+1 > MaxIDRange {
		return 0, 0, fmt.Errorf("wire: id range %q names %d servers, above the %d sanity cap", spec, hi-lo+1, MaxIDRange)
	}
	return lo, hi, nil
}

// ParseRoutes parses a route table spec of comma-separated
// "range=address" entries, e.g.
//
//	0-8=10.0.0.1:7000,9-16=10.0.0.2:7000,17-24=10.0.0.3:7000
//
// into the server-index → address map wire.Dial consumes. Ranges must not
// overlap.
func ParseRoutes(spec string) (map[int]string, error) {
	routes := make(map[int]string)
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		rangeSpec, addr, ok := strings.Cut(entry, "=")
		if !ok || addr == "" {
			return nil, fmt.Errorf("wire: bad route %q (want \"lo-hi=host:port\")", entry)
		}
		ids, err := ParseIDRange(rangeSpec)
		if err != nil {
			return nil, err
		}
		for _, id := range ids {
			if prev, dup := routes[id]; dup {
				return nil, fmt.Errorf("wire: server %d routed to both %s and %s", id, prev, addr)
			}
			routes[id] = addr
		}
	}
	if len(routes) == 0 {
		return nil, fmt.Errorf("wire: empty route spec %q", spec)
	}
	return routes, nil
}

// CheckCoverage verifies that routes assign an address to every server of
// an n-element universe — the footgun check a client should run before
// driving a quorum system whose selection assumes all of {0,…,n−1} exist.
func CheckCoverage(routes map[int]string, n int) error {
	var missing []int
	for i := 0; i < n; i++ {
		if _, ok := routes[i]; !ok {
			missing = append(missing, i)
			if len(missing) >= 8 {
				break
			}
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("wire: route table misses servers %v (universe size %d)", missing, n)
	}
	for id := range routes {
		if id >= n {
			return fmt.Errorf("wire: route for server %d outside universe of size %d", id, n)
		}
	}
	return nil
}
