// Interface transaction properties for mmu_stub. Machine generated; do not edit.

module mmu_stub_prop #(
    parameter TAGW = 2,
    parameter ASSERT_INPUTS = 0,
    parameter MMU_MAX_OUTSTANDING = 8,
    parameter PTW_MAX_OUTSTANDING = 8
) (
    input wire clk,
    input wire rst_n,
    input wire lsu_req_val,
    input wire lsu_res_val,
    input wire mmu_busy,
    input wire ptw_req_val,
    input wire ptw_req_ack,
    input wire [TAGW-1:0] ptw_req_tag,
    input wire ptw_res_val,
    input wire [TAGW-1:0] ptw_res_tag
);

// ---- transaction mmu: lsu_req -in> lsu_res ----

wire lsu_req_ack = !mmu_busy;
wire lsu_req_hsk = lsu_req_val && lsu_req_ack;
wire lsu_res_hsk = lsu_res_val;
localparam MMU_CNT_WIDTH = $clog2(MMU_MAX_OUTSTANDING + 1);
logic [MMU_CNT_WIDTH-1:0] mmu_outstanding;
always @(posedge clk) begin
    if (!rst_n)
        mmu_outstanding <= '0;
    else if (lsu_req_hsk && !lsu_res_hsk)
        mmu_outstanding <= mmu_outstanding + 1'b1;
    else if (lsu_res_hsk && !lsu_req_hsk)
        mmu_outstanding <= mmu_outstanding - 1'b1;
end

mmu_liveness: assert property (@(posedge clk) disable iff (!rst_n)
    lsu_req_hsk |-> s_eventually (lsu_res_val));

mmu_response_had_request: assert property (@(posedge clk) disable iff (!rst_n)
    lsu_res_val |-> ((mmu_outstanding > 0) || lsu_req_hsk));

mmu_counter_no_underflow: assert property (@(posedge clk) disable iff (!rst_n)
    (lsu_res_hsk && !lsu_req_hsk) |-> (mmu_outstanding > 0));

mmu_ack_eventually: cover property (@(posedge clk) disable iff (!rst_n)
    lsu_req_val ##[0:$] lsu_req_ack);

`ifdef XPROP
mmu_xprop_p: assert property (@(posedge clk) disable iff (!rst_n)
    lsu_req_val |-> !$isunknown(lsu_req_ack));
mmu_xprop_q: assert property (@(posedge clk) disable iff (!rst_n)
    !$isunknown(lsu_res_val));
`endif

// ---- transaction ptw: ptw_req -out> ptw_res ----

wire [TAGW-1:0] ptw_req_transid = ptw_req_tag;
wire [TAGW-1:0] ptw_res_transid = ptw_res_tag;
wire ptw_req_hsk = ptw_req_val && ptw_req_ack;
wire ptw_res_hsk = ptw_res_val;
localparam PTW_CNT_WIDTH = $clog2(PTW_MAX_OUTSTANDING + 1);
logic [PTW_CNT_WIDTH-1:0] ptw_outstanding;
always @(posedge clk) begin
    if (!rst_n)
        ptw_outstanding <= '0;
    else if (ptw_req_hsk && !ptw_res_hsk)
        ptw_outstanding <= ptw_outstanding + 1'b1;
    else if (ptw_res_hsk && !ptw_req_hsk)
        ptw_outstanding <= ptw_outstanding - 1'b1;
end
(* anyconst *) logic [TAGW-1:0] symb_ptw_transid;
symb_ptw_transid_stable: assume property (@(posedge clk) $stable(symb_ptw_transid));
logic ptw_inflight;
always @(posedge clk) begin
    if (!rst_n)
        ptw_inflight <= 1'b0;
    else if (ptw_req_hsk && (ptw_req_transid == symb_ptw_transid))
        ptw_inflight <= 1'b1;
    else if (ptw_res_hsk && (ptw_res_transid == symb_ptw_transid))
        ptw_inflight <= 1'b0;
end

if (ASSERT_INPUTS) begin : ptw_liveness_asrt
    ptw_liveness: assert property (@(posedge clk) disable iff (!rst_n)
    (ptw_req_hsk && (ptw_req_transid == symb_ptw_transid)) |-> s_eventually (ptw_res_val && (ptw_res_transid == symb_ptw_transid)));
end else begin : ptw_liveness_assm
    ptw_liveness: assume property (@(posedge clk) disable iff (!rst_n)
    (ptw_req_hsk && (ptw_req_transid == symb_ptw_transid)) |-> s_eventually (ptw_res_val && (ptw_res_transid == symb_ptw_transid)));
end

if (ASSERT_INPUTS) begin : ptw_response_had_request_asrt
    ptw_response_had_request: assert property (@(posedge clk) disable iff (!rst_n)
    ptw_res_val |-> ((ptw_outstanding > 0) || ptw_req_hsk));
end else begin : ptw_response_had_request_assm
    ptw_response_had_request: assume property (@(posedge clk) disable iff (!rst_n)
    ptw_res_val |-> ((ptw_outstanding > 0) || ptw_req_hsk));
end

if (ASSERT_INPUTS) begin : ptw_counter_no_underflow_asrt
    ptw_counter_no_underflow: assert property (@(posedge clk) disable iff (!rst_n)
    (ptw_res_hsk && !ptw_req_hsk) |-> (ptw_outstanding > 0));
end else begin : ptw_counter_no_underflow_assm
    ptw_counter_no_underflow: assume property (@(posedge clk) disable iff (!rst_n)
    (ptw_res_hsk && !ptw_req_hsk) |-> (ptw_outstanding > 0));
end

ptw_ack_eventually: cover property (@(posedge clk) disable iff (!rst_n)
    ptw_req_val ##[0:$] ptw_req_ack);

if (ASSERT_INPUTS) begin : ptw_transid_integrity_asrt
    ptw_transid_integrity: assert property (@(posedge clk) disable iff (!rst_n)
    (ptw_res_hsk && (ptw_res_transid == symb_ptw_transid)) |-> ptw_inflight);
end else begin : ptw_transid_integrity_assm
    ptw_transid_integrity: assume property (@(posedge clk) disable iff (!rst_n)
    (ptw_res_hsk && (ptw_res_transid == symb_ptw_transid)) |-> ptw_inflight);
end

`ifdef XPROP
ptw_xprop_p: assert property (@(posedge clk) disable iff (!rst_n)
    ptw_req_val |-> !$isunknown({ptw_req_ack, ptw_req_transid}));
ptw_xprop_q: assert property (@(posedge clk) disable iff (!rst_n)
    ptw_res_val |-> !$isunknown(ptw_res_transid));
`endif

// ---- linked submodule testbenches ----
bind pipeline pipeline_prop #(.ASSERT_INPUTS(1)) pipeline_prop_i (.*);

endmodule
