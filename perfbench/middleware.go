package main

import (
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// distCounter wraps a dist worker's handler and counts, from outside, what
// the coordinator asks of it: requests to /dist/*, their request and
// response body bytes, and the time the handler was busy with them. Other
// routes pass through uncounted. Several handlers may share one counter.
type distCounter struct {
	rpcs      atomic.Int64
	bytes     atomic.Int64
	busyNanos atomic.Int64
	// op is the span of the client op the worker requests serve; nil or
	// the zero spanRef records no span.
	op atomic.Pointer[spanRef]
}

// wrap returns next with the counting in front of it.
func (c *distCounter) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/dist/") {
			next.ServeHTTP(w, r)
			return
		}
		var parent spanRef
		if p := c.op.Load(); p != nil {
			parent = *p
		}
		sp := parent.child("dist.worker")
		body := &countingReader{r: r.Body}
		r.Body = body
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(cw, r)
		c.busyNanos.Add(time.Since(start).Nanoseconds())
		// A handler may leave part of the body unread; it still crossed
		// the wire.
		io.Copy(io.Discard, body) //nolint:errcheck // counting only
		sp.end()
		c.rpcs.Add(1)
		c.bytes.Add(body.n + cw.n)
	})
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.ReadCloser
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.r.Close() }

// countingWriter counts the response body bytes written through it.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}
