package measures

// CLI parsers for the heterogeneous failure model: ParsePVector turns a
// -p-vector spec into a per-server probability vector and ParseDomains a
// -domains spec into correlated failure domains. They live next to
// FailureModel so the spec syntax and the model validate as one unit.
// ParseRange and ParseMembers are the server-range syntax every spec of
// the repo shares; measures is the lowest package that parses one, so the
// fault schedules, churn specs and wire route tables above it call these.

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ParseRange parses "7" or "3-5" into an inclusive server index range.
func ParseRange(spec string) (lo, hi int, err error) {
	if i := strings.IndexByte(spec, '-'); i >= 0 {
		if lo, err = strconv.Atoi(spec[:i]); err != nil {
			return 0, 0, fmt.Errorf("bad server range %q", spec)
		}
		if hi, err = strconv.Atoi(spec[i+1:]); err != nil {
			return 0, 0, fmt.Errorf("bad server range %q", spec)
		}
		if lo < 0 || hi < lo {
			return 0, 0, fmt.Errorf("bad server range %q", spec)
		}
		return lo, hi, nil
	}
	lo, err = strconv.Atoi(spec)
	if err != nil || lo < 0 {
		return 0, 0, fmt.Errorf("bad server index %q", spec)
	}
	return lo, lo, nil
}

// ParseMembers parses a '+'-joined list of server ranges ("0-3+8+12-13")
// into an index list, rejecting duplicates and any index ≥ n. The bound
// is checked before a range is expanded, so a typo'd range costs a
// diagnostic, not an allocation.
func ParseMembers(spec string, n int) ([]int, error) {
	var out []int
	seen := make(map[int]bool)
	for _, piece := range strings.Split(spec, "+") {
		lo, hi, err := ParseRange(strings.TrimSpace(piece))
		if err != nil {
			return nil, err
		}
		if hi >= n {
			return nil, fmt.Errorf("server %d outside universe [0,%d)", hi, n)
		}
		for s := lo; s <= hi; s++ {
			if seen[s] {
				return nil, fmt.Errorf("server %d repeated in %q", s, spec)
			}
			seen[s] = true
			out = append(out, s)
		}
	}
	return out, nil
}

// parseProb parses a probability literal, rejecting NaN and anything
// outside [0,1].
func parseProb(s string) (float64, error) {
	p, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("measures: bad probability %q", s)
	}
	if !(p >= 0 && p <= 1) {
		return 0, fmt.Errorf("measures: probability %g outside [0,1]", p)
	}
	return p, nil
}

// ParsePVector parses the CLI form of a per-server crash probability
// vector over an n-server universe. Three forms are accepted:
//
//	"0.1"                     — uniform: every server at 0.1
//	"0.1,0.2,0.05"            — positional: exactly n probabilities
//	"*:0.05,0-3:0.2,7:0.5"    — ranged: lo-hi:p or i:p entries over a
//	                            *:p default (0 when no * entry); later
//	                            entries override earlier ones
//
// Mixing ranged and positional entries is an error.
func ParsePVector(spec string, n int) ([]float64, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, errors.New("measures: empty p-vector spec")
	}
	if n <= 0 {
		return nil, fmt.Errorf("measures: p-vector needs a positive universe, got n=%d", n)
	}
	fields := strings.Split(spec, ",")
	ranged := strings.Contains(spec, ":")
	if !ranged && len(fields) == 1 {
		p, err := parseProb(fields[0])
		if err != nil {
			return nil, err
		}
		return UniformModel(n, p).P, nil
	}
	vec := make([]float64, n)
	if !ranged {
		if len(fields) != n {
			return nil, fmt.Errorf("measures: positional p-vector has %d entries for %d servers", len(fields), n)
		}
		for i, f := range fields {
			p, err := parseProb(f)
			if err != nil {
				return nil, fmt.Errorf("measures: p-vector entry %d: %w", i, err)
			}
			vec[i] = p
		}
		return vec, nil
	}
	for _, field := range fields {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		rangePart, probPart, ok := strings.Cut(field, ":")
		if !ok {
			return nil, fmt.Errorf("measures: p-vector entry %q is not range:probability", field)
		}
		p, err := parseProb(probPart)
		if err != nil {
			return nil, fmt.Errorf("measures: p-vector entry %q: %w", field, err)
		}
		rangePart = strings.TrimSpace(rangePart)
		if rangePart == "*" {
			for i := range vec {
				vec[i] = p
			}
			continue
		}
		lo, hi, err := ParseRange(rangePart)
		if err != nil {
			return nil, fmt.Errorf("measures: p-vector entry %q: %w", field, err)
		}
		if hi >= n {
			return nil, fmt.Errorf("measures: p-vector entry %q touches server %d outside universe [0,%d)", field, hi, n)
		}
		for i := lo; i <= hi; i++ {
			vec[i] = p
		}
	}
	return vec, nil
}

// ParseDomains parses the CLI form of correlated failure domains:
// comma-separated members:probability entries, where members is an
// inclusive lo-hi range, a single index, or several such pieces joined
// with '+' for non-contiguous domains. Example, over 16 servers:
//
//	"0-3:0.05,4-7:0.05,8+12:0.2"
//
// makes servers 0-3 one rack failing together with probability 0.05,
// 4-7 another, and the (non-contiguous) pair {8,12} a third domain at
// 0.2. Domains may overlap each other, but not repeat a member within
// themselves.
func ParseDomains(spec string, n int) ([]Domain, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, errors.New("measures: empty domains spec")
	}
	var domains []Domain
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		memberPart, probPart, ok := strings.Cut(field, ":")
		if !ok {
			return nil, fmt.Errorf("measures: domain entry %q is not members:probability", field)
		}
		p, err := parseProb(probPart)
		if err != nil {
			return nil, fmt.Errorf("measures: domain entry %q: %w", field, err)
		}
		members, err := ParseMembers(memberPart, n)
		if err != nil {
			return nil, fmt.Errorf("measures: domain entry %q: %w", field, err)
		}
		domains = append(domains, Domain{Members: members, P: p})
	}
	if len(domains) == 0 {
		return nil, errors.New("measures: domains spec has no entries")
	}
	return domains, nil
}
