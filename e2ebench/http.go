package main

import (
	"bytes"
	"fmt"
	"net/http"
	"time"
)

// getter is one closed-loop HTTP client: it reuses its body buffer.
type getter struct {
	s       *stack
	buf     bytes.Buffer
	corrupt func([]byte) []byte
}

// get performs one full round trip — request, status, whole body — and
// returns the body (valid until the next get) and the round-trip time.
func (g *getter) get(base, path string) ([]byte, time.Duration, error) {
	t := time.Now()
	resp, err := g.s.http.Get(base + path)
	if err != nil {
		return nil, time.Since(t), err
	}
	g.buf.Reset()
	_, err = g.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	rtt := time.Since(t)
	if err != nil {
		return nil, rtt, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, rtt, fmt.Errorf("GET %s: status %d: %.200s", path, resp.StatusCode, g.buf.Bytes())
	}
	body := g.buf.Bytes()
	if g.corrupt != nil {
		body = g.corrupt(body)
	}
	return body, rtt, nil
}
