package obs

import (
	"fmt"
	"sync"
	"time"
)

// Event is one entry in the ring-buffer event log: a timestamped,
// human-readable line recording a rare state transition (fault flip,
// rehabilitation, no-live-quorum epoch, recovery).
type Event struct {
	At  time.Time
	Msg string
}

// EventLog is a fixed-capacity ring buffer of Events. Writes are
// mutex-guarded — events are rare-path by design, so contention is not a
// concern the way it is for counters. All methods are no-ops on a nil
// receiver.
type EventLog struct {
	mu   sync.Mutex
	buf  []Event
	next int // index of the slot the next Add writes
}

// NewEventLog returns a ring buffer retaining the last capacity events.
func NewEventLog(capacity int) *EventLog {
	if capacity < 1 {
		capacity = 1
	}
	return &EventLog{buf: make([]Event, 0, capacity)}
}

// Add appends one event, evicting the oldest when full.
func (l *EventLog) Add(msg string) {
	if l == nil {
		return
	}
	ev := Event{At: time.Now(), Msg: msg}
	l.mu.Lock()
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, ev)
	} else {
		l.buf[l.next] = ev
	}
	l.next = (l.next + 1) % cap(l.buf)
	l.mu.Unlock()
}

// Addf formats and appends one event.
func (l *EventLog) Addf(format string, args ...any) {
	if l == nil {
		return
	}
	l.Add(fmt.Sprintf(format, args...))
}

// Snapshot returns the retained events, oldest first.
func (l *EventLog) Snapshot() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, len(l.buf))
	if len(l.buf) == cap(l.buf) {
		out = append(out, l.buf[l.next:]...)
		out = append(out, l.buf[:l.next]...)
	} else {
		out = append(out, l.buf...)
	}
	return out
}
