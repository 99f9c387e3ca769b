package obs

import (
	"bufio"
	"fmt"
	"os"
)

// WriteChromeTraceFile writes the analysed run to path in the Chrome
// trace-event format (the JSON shape chrome://tracing, Perfetto and
// speedscope load), host steps mapped to microseconds 1:1: one pid-0 track
// per workstation (tid = position) holding compute slices, instant events
// for link injections and deliveries, fault slices and, after the stream,
// the derived stall slices of Analysis.StallSpans. Each trace event goes
// through a buffered writer as the stream is walked, so the export holds no
// second copy of the stream.
func WriteChromeTraceFile(path string, a *Analysis) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	writeChromeTrace(w, a)
	// A bufio.Writer keeps its first write error and returns it here.
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeChromeTrace(w *bufio.Writer, a *Analysis) {
	w.WriteString(`{"traceEvents":[`)
	sep := ""
	event := func(format string, args ...any) {
		w.WriteString(sep)
		sep = ","
		fmt.Fprintf(w, format, args...)
	}
	for i := range a.events {
		e := &a.events[i]
		switch e.Kind {
		case KindCompute:
			event(`{"name":"compute c%[1]d t%[2]d","cat":"compute","ph":"X","ts":%[3]d,"dur":1,"pid":0,"tid":%[4]d,"args":{"col":"%[1]d","gstep":"%[2]d"}}`,
				e.Col, e.GStep, e.Step, e.Proc)
		case KindInject:
			dir := "right"
			if e.Dir < 0 {
				dir = "left"
			}
			event(`{"name":"inject c%[1]d t%[2]d link%[3]d %[4]s","cat":"inject","ph":"i","ts":%[5]d,"pid":0,"tid":%[6]d,"s":"t","args":{"dir":"%[4]s","link":"%[3]d","route":"%[7]d"}}`,
				e.Col, e.GStep, e.Link, dir, e.Step, e.Proc, e.Route)
		case KindDeliver:
			event(`{"name":"deliver c%[1]d t%[2]d","cat":"deliver","ph":"i","ts":%[3]d,"pid":0,"tid":%[4]d,"s":"t","args":{"col":"%[1]d","gstep":"%[2]d","route":"%[5]d"}}`,
				e.Col, e.GStep, e.Step, e.Proc, e.Route)
		case KindFault:
			// Host faults land on the host's track; link faults go on a
			// dedicated pid-1 track indexed by link.
			pid, tid := 0, e.Proc
			if e.Proc < 0 {
				pid, tid = 1, e.Link
			}
			event(`{"name":"fault: %[1]s","cat":"fault","ph":"X","ts":%[2]d,"dur":%[3]d,"pid":%[4]d,"tid":%[5]d,"args":{"fault":"%[1]s","link":"%[6]d"}}`,
				e.Fault, e.Step, e.Dur, pid, tid, e.Link)
		}
	}
	for _, e := range a.StallSpans() {
		event(`{"name":"stall: %[1]s","cat":"stall","ph":"X","ts":%[2]d,"dur":%[3]d,"pid":0,"tid":%[4]d,"args":{"cause":"%[1]s"}}`,
			e.Cause, e.Step, e.Dur, e.Proc)
	}
	info := a.Info
	fmt.Fprintf(w, `],"displayTimeUnit":"ms","otherData":{"guestSteps":"%d","hostN":"%d","hostSteps":"%d","timeUnit":"1us = 1 host step"}}`+"\n",
		info.GuestSteps, info.HostN, info.HostSteps)
}
