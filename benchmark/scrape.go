package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// The series the traced run reads from a daemon's /metrics endpoint. Each
// daemon serves one role, so labels are dropped and same-named samples sum.
const (
	seriesProcessSum   = "prochlo_stage_process_seconds_sum"
	seriesPushSum      = "prochlo_stage_push_seconds_sum"
	seriesAccepted     = "prochlo_reports_accepted_total"
	seriesRejected     = "prochlo_reports_rejected_total"
	seriesEpochs       = "prochlo_epochs_flushed_total"
	seriesWALFsyncSum  = "prochlo_wal_fsync_seconds_sum"
	seriesWALFsyncs    = "prochlo_wal_fsync_seconds_count"
	histogramBucketSfx = "_bucket"
)

// samples maps a series name (labels dropped) to the sum of its samples.
type samples map[string]float64

// sub returns s - o per series; a series missing on either side counts as 0.
func (s samples) sub(o samples) samples {
	d := make(samples, len(s))
	for k, v := range s {
		d[k] = v - o[k]
	}
	return d
}

// addScaled accumulates a delta into s. Time spent inside a daemon (the
// histograms' _seconds_sum series) is scaled by the machine speed like any
// other timing; counts are not.
func (s samples) addScaled(delta samples, wallSpeed float64) {
	for name, v := range delta {
		if strings.HasSuffix(name, "_seconds_sum") {
			v *= wallSpeed
		}
		s[name] += v
	}
}

// parseExposition reads the Prometheus text format: "name{labels} value" or
// "name value" per line, '#' lines are comments. Histogram bucket lines are
// skipped: only their _sum and _count are used.
func parseExposition(r io.Reader) (samples, error) {
	out := make(samples)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest := line, ""
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				return nil, fmt.Errorf("metrics: unbalanced labels in %q", line)
			}
			name, rest = line[:i], line[j+1:]
		} else if i := strings.IndexByte(line, ' '); i >= 0 {
			name, rest = line[:i], line[i:]
		}
		if strings.HasSuffix(name, histogramBucketSfx) {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: value in %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

var scrapeClient = &http.Client{Timeout: 5 * time.Second}

func scrape(url string) (samples, error) {
	resp, err := scrapeClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", url, resp.Status)
	}
	return parseExposition(resp.Body)
}
