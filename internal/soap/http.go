// Package soap implements the Grid Buffer service's paper-faithful transport
// (core.TransportSOAP): SOAP 1.1 envelopes over HTTP POST, one connection per
// call — exactly how the paper's prototype exposed the service ("implemented
// using Web Services, and is accessed by SOAP messages", §4).
//
// The HTTP layer is a deliberately small HTTP/1.1 subset rather than
// net/http: under the deterministic virtual clock every goroutine that can
// block must be registered with the clock, and net/http spawns its own.
// The same code serves real TCP in wall-clock mode.
package soap

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"

	"griddles/internal/rpc"
	"griddles/internal/simclock"
)

// MaxBody bounds request/response bodies (16 MiB).
const MaxBody = 16 << 20

// Handler processes one POST: it receives the request path and body and
// returns a status code and response body.
type Handler func(path string, body []byte) (status int, resp []byte)

// HTTPServer is the minimal HTTP/1.1 POST server.
type HTTPServer struct {
	clock   simclock.Clock
	handler Handler
}

// NewHTTPServer returns a server invoking handler per request.
func NewHTTPServer(clock simclock.Clock, handler Handler) *HTTPServer {
	return &HTTPServer{clock: clock, handler: handler}
}

// Serve accepts connections until l is closed. Connections are treated as
// one-request-per-connection (HTTP/1.0 style with explicit close), matching
// the 2004 connection-per-call SOAP stacks this package models.
func (s *HTTPServer) Serve(l net.Listener) {
	rpc.Serve(l, s.clock, "soap-http-conn", nil, s.handle)
}

func (s *HTTPServer) handle(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	method, path, body, err := ReadRequest(br)
	if err != nil {
		writeResponse(conn, 400, []byte("bad request: "+err.Error()))
		return
	}
	if method != "POST" {
		writeResponse(conn, 405, []byte("method not allowed"))
		return
	}
	status, resp := s.handler(path, body)
	writeResponse(conn, status, resp)
}

// ReadRequest parses one HTTP request (request line, headers,
// Content-Length-delimited body).
func ReadRequest(br *bufio.Reader) (method, path string, body []byte, err error) {
	line, err := readLine(br)
	if err != nil {
		return "", "", nil, err
	}
	parts := strings.SplitN(line, " ", 3)
	if len(parts) != 3 || !strings.HasPrefix(parts[2], "HTTP/1.") {
		return "", "", nil, fmt.Errorf("soap: malformed request line %q", line)
	}
	method, path = parts[0], parts[1]
	length, err := readHeaders(br)
	if err != nil {
		return "", "", nil, err
	}
	if length > 0 {
		body = make([]byte, length)
		if _, err := io.ReadFull(br, body); err != nil {
			return "", "", nil, fmt.Errorf("soap: short body: %w", err)
		}
	}
	return method, path, body, nil
}

// readHeaders consumes headers up to the blank line and returns the
// Content-Length (0 if absent).
func readHeaders(br *bufio.Reader) (int, error) {
	length := 0
	for {
		line, err := readLine(br)
		if err != nil {
			return 0, err
		}
		if line == "" {
			return length, nil
		}
		if k, v, ok := strings.Cut(line, ":"); ok {
			if strings.EqualFold(strings.TrimSpace(k), "Content-Length") {
				n, err := strconv.Atoi(strings.TrimSpace(v))
				if err != nil || n < 0 || n > MaxBody {
					return 0, fmt.Errorf("soap: bad Content-Length %q", v)
				}
				length = n
			}
		}
	}
}

func readLine(br *bufio.Reader) (string, error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\r\n"), nil
}

func statusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 400:
		return "Bad Request"
	case 405:
		return "Method Not Allowed"
	case 500:
		return "Internal Server Error"
	default:
		return "Status"
	}
}

func writeResponse(w io.Writer, status int, body []byte) error {
	hdr := fmt.Sprintf("HTTP/1.1 %d %s\r\nContent-Type: text/xml; charset=utf-8\r\nContent-Length: %d\r\nConnection: close\r\n\r\n",
		status, statusText(status), len(body))
	if _, err := io.WriteString(w, hdr); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// Dialer opens connections to service addresses.
type Dialer = rpc.Dialer

// Post performs one HTTP POST on a fresh connection (the connection-per-
// call discipline) and returns the response body. Callers that need the
// 2004 stacks' serialized teardown use PostWithClock.
func Post(dialer Dialer, addr, path string, body []byte) ([]byte, error) {
	conn, err := dialer.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("soap: dial %s: %w", addr, err)
	}
	defer conn.Close()
	req := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: text/xml; charset=utf-8\r\nSOAPAction: \"\"\r\nContent-Length: %d\r\nConnection: close\r\n\r\n",
		path, addr, len(body))
	if _, err := io.WriteString(conn, req); err != nil {
		return nil, err
	}
	if _, err := conn.Write(body); err != nil {
		return nil, err
	}
	br := bufio.NewReader(conn)
	line, err := readLine(br)
	if err != nil {
		return nil, err
	}
	parts := strings.SplitN(line, " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/1.") {
		return nil, fmt.Errorf("soap: malformed status line %q", line)
	}
	status, err := strconv.Atoi(parts[1])
	if err != nil {
		return nil, fmt.Errorf("soap: bad status in %q", line)
	}
	length, err := readHeaders(br)
	if err != nil {
		return nil, err
	}
	resp := make([]byte, length)
	if _, err := io.ReadFull(br, resp); err != nil {
		return nil, fmt.Errorf("soap: short response body: %w", err)
	}
	if status != 200 {
		return nil, &HTTPError{Status: status, Body: string(resp)}
	}
	return resp, nil
}

// HTTPError is a non-200 response.
type HTTPError struct {
	Status int
	Body   string
}

// Error implements error.
func (e *HTTPError) Error() string {
	return fmt.Sprintf("soap: HTTP %d: %s", e.Status, e.Body)
}

// PostWithClock is Post plus the polite-close teardown of 2004 SOAP
// clients: after the response, the caller waits out a FIN handshake
// (charged as the measured connection-setup time) before the next call.
func PostWithClock(clock simclock.Clock, dialer Dialer, addr, path string, body []byte) ([]byte, error) {
	t0 := clock.Now()
	resp, err := Post(dialer, addr, path, body)
	if err != nil {
		return nil, err
	}
	// Setup took half the exchange; the teardown costs one more handshake.
	clock.Sleep(clock.Now().Sub(t0) / 2)
	return resp, nil
}
