package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// requestTimeout bounds one HTTP request; a request that takes longer
// fails.
const requestTimeout = 30 * time.Second

// conn is one keep-alive HTTP/1.1 connection writing prebuilt request
// bytes. It replaces net/http's client so the generator spends little
// CPU per request on the two cores it shares with the daemon.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// do sends one request and reads the whole response. A non-zero id is
// sent as the X-Bench-Req header, which the traced run's handler
// wrapper uses to tie its span to the client's. Any transport error
// fails the request and drops the connection; the request is never
// retried, since it may already have run.
func (c *conn) do(w *wireReq, id uint64) (int, []byte, error) {
	if c.c == nil {
		nc, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
		if err != nil {
			return 0, nil, err
		}
		c.c, c.br = nc, bufio.NewReaderSize(nc, 16<<10)
	}
	if err := c.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		c.close()
		return 0, nil, err
	}
	bufs := net.Buffers{w.head, w.tail}
	if id != 0 {
		bufs = net.Buffers{w.head, []byte("X-Bench-Req: " + strconv.FormatUint(id, 10) + "\r\n"), w.tail}
	}
	if _, err := bufs.WriteTo(c.c); err != nil {
		c.close()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return 0, nil, err
	}
	var body []byte
	if resp.ContentLength >= 0 {
		body = make([]byte, resp.ContentLength)
		_, err = io.ReadFull(resp.Body, body)
	} else {
		body, err = io.ReadAll(resp.Body)
	}
	resp.Body.Close()
	if err != nil {
		c.close()
		return 0, nil, fmt.Errorf("reading response: %w", err)
	}
	if resp.Close {
		c.close()
	}
	return resp.StatusCode, body, nil
}

// get fetches a URL path with a one-off connection (metrics and health
// probes outside the timed phases).
func get(addr, path string) ([]byte, error) {
	c := &conn{addr: addr}
	defer c.close()
	w := &wireReq{head: []byte("GET " + path + " HTTP/1.1\r\nHost: dmcd\r\n"), tail: []byte("\r\n")}
	status, body, err := c.do(w, 0)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, status)
	}
	return body, nil
}
