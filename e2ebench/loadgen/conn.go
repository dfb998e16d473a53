package loadgen

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// ReqHeader carries the generator's request id when a run is tagged,
// so a traced server can key its spans by it.
const ReqHeader = "X-Bench-Req"

// conn is one keep-alive HTTP/1.1 connection whose requests the
// generator writes itself: each request leaves exactly when its worker
// sends it, and no transport goroutines run beside the workers.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	buf  []byte
}

type request struct {
	method, path string
	cookie       string
	inm          string // If-None-Match
	token        string // bearer token, "" for visitor routes
	body         string
	id           uint64 // ReqHeader value, 0 for none
	keepBody     bool
}

type response struct {
	status    int
	location  string
	setCookie string
	etag      string
	body      []byte // only when the request asked to keep it
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// do sends one request and reads the whole response. Any error leaves
// the connection closed; the next request redials.
func (c *conn) do(rq *request) (response, error) {
	if c.c == nil {
		nc, err := net.DialTimeout("tcp", c.addr, 2*time.Second)
		if err != nil {
			return response{}, err
		}
		c.c = nc
		c.br = bufio.NewReaderSize(nc, 32<<10)
	}
	if err := c.c.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		c.close()
		return response{}, err
	}
	b := append(c.buf[:0], rq.method...)
	b = append(b, ' ')
	b = append(b, rq.path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, c.addr...)
	if rq.cookie != "" {
		b = append(b, "\r\nCookie: navsession="...)
		b = append(b, rq.cookie...)
	}
	if rq.inm != "" {
		b = append(b, "\r\nIf-None-Match: "...)
		b = append(b, rq.inm...)
	}
	if rq.token != "" {
		b = append(b, "\r\nAuthorization: Bearer "...)
		b = append(b, rq.token...)
	}
	if rq.id != 0 {
		b = append(b, "\r\n"+ReqHeader+": "...)
		b = strconv.AppendUint(b, rq.id, 10)
	}
	if rq.body != "" {
		b = append(b, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(rq.body)), 10)
	}
	b = append(b, "\r\n\r\n"...)
	b = append(b, rq.body...)
	c.buf = b
	if _, err := c.c.Write(b); err != nil {
		c.close()
		return response{}, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return response{}, err
	}
	out := response{
		status:    resp.StatusCode,
		location:  resp.Header.Get("Location"),
		setCookie: resp.Header.Get("Set-Cookie"),
		etag:      resp.Header.Get("Etag"),
	}
	if rq.keepBody {
		out.body, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
	if err != nil {
		c.close()
		return response{}, fmt.Errorf("reading %s body: %w", rq.path, err)
	}
	if resp.Close {
		c.close()
	}
	return out, nil
}

// sessionCookie extracts the navsession value from a Set-Cookie header.
func sessionCookie(setCookie string) string {
	v, ok := strings.CutPrefix(setCookie, "navsession=")
	if !ok {
		return ""
	}
	if i := strings.IndexByte(v, ';'); i >= 0 {
		v = v[:i]
	}
	return v
}
